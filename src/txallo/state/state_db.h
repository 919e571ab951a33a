// The k-shard account-state composite the engine drives (txallo::state).
//
// StateDb owns one ShardStateDb per shard plus the residency map: which
// shard currently holds each account's record. Three engine-facing jobs:
//
//   * 2PC staging. StagePart() dispatches each op of a transaction part to
//     the shard its record currently resides on (which, after a migration,
//     may differ from the lane the part was routed to at ingest); missing
//     records are lazily created — funded with the initial balance — on
//     the ingest-routed placement shard. Commit()/Abort() apply or drop
//     everything staged under a sequence tag, visiting only the shards
//     that staged ops for it, in ascending shard order.
//
//   * State migration. BeginMigration(allocation) moves every record whose
//     effective shard under the new mapping differs from its residency —
//     the real cost behind an allocation install. Records locked by a
//     pending 2PC reservation are deferred and retried by
//     ContinueMigration() at subsequent ticks (an account mid-round must
//     not move). Each call reports per-shard in/out move counts so the
//     engine can charge migration work against λ.
//
//   * Fingerprinting. GlobalRoot() hashes the per-shard Merkle roots in
//     shard order — the per-tick root the replay log records and verifies.
//
// Thread-safety: none; driver-side only (see engine.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/account.h"
#include "txallo/common/flat_map.h"
#include "txallo/common/sha256.h"
#include "txallo/state/account_state.h"
#include "txallo/state/shard_state_db.h"

namespace txallo::state {

/// Per-shard record movement of one migration pass.
struct MigrationReport {
  uint64_t accounts_moved = 0;
  /// Records deferred because a pending reservation locked them.
  uint64_t accounts_deferred = 0;
  std::vector<uint64_t> moved_out;  // indexed by source shard
  std::vector<uint64_t> moved_in;   // indexed by destination shard
};

class StateDb {
 public:
  /// Residency sentinel: the account has no record yet.
  static constexpr uint32_t kNoShard = UINT32_MAX;

  StateDb(uint32_t num_shards, const StateConfig& config);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const StateConfig& config() const { return config_; }
  ShardStateDb& shard(uint32_t s) { return *shards_[s]; }
  const ShardStateDb& shard(uint32_t s) const { return *shards_[s]; }

  /// Which shard holds `account`'s record (kNoShard when none does).
  uint32_t ResidencyOf(chain::AccountId account) const;

  /// Committed record via the residency map, or nullptr.
  const AccountState* Find(chain::AccountId account) const;

  /// Pre-creates a committed record on `shard` (tests; workload funding
  /// normally happens lazily at first touch).
  void Fund(chain::AccountId account, AccountState record, uint32_t shard);

  /// Stages one transaction part (see file header). Returns false when any
  /// op fails its balance/nonce check — the part's vote; ops staged under
  /// `seq` before the failure are dropped by the eventual Abort(seq).
  bool StagePart(uint64_t seq, const std::vector<Op>& ops,
                 uint32_t placement_shard);

  /// Applies / drops everything staged under `seq`, shard by shard in
  /// ascending order. Returns ops affected.
  size_t Commit(uint64_t seq);
  size_t Abort(uint64_t seq);

  /// Starts migrating to `allocation` (replacing any migration still in
  /// progress; its shard count must equal this DB's). Effective shard:
  /// allocation->RouteOf(account, hash_route_unassigned), the engine's
  /// ingest rule; a record the rule leaves unplaced stays where it is.
  MigrationReport BeginMigration(
      std::shared_ptr<const alloc::Allocation> allocation,
      bool hash_route_unassigned);

  /// Retries records a previous pass deferred (reservation-locked).
  MigrationReport ContinueMigration();

  bool migration_pending() const { return !deferred_moves_.empty(); }

  /// SHA-256 over the per-shard Merkle roots in shard order.
  Sha256Digest GlobalRoot();

  uint64_t total_accounts() const;

 private:
  uint32_t EffectiveShard(chain::AccountId account) const;
  // Moves what it can out of `candidates`, refilling deferred_moves_.
  MigrationReport MoveRecords(const std::vector<chain::AccountId>& candidates);
  void TrackResidency(chain::AccountId account, uint32_t shard);
  // Commit()/Abort(): runs `decide` for `seq` on every shard that may hold
  // ops staged under it, in ascending shard order.
  size_t Decide(uint64_t seq, size_t (ShardStateDb::*decide)(uint64_t));

  // Shards 0..kMaskedShards-1 are tracked per sequence tag in
  // staged_shards_; any beyond are visited at every decision.
  static constexpr uint32_t kMaskedShards = 64;

  const StateConfig config_;
  std::vector<std::unique_ptr<ShardStateDb>> shards_;
  // staged_shards_[seq]: bit s set when shard s staged ops under `seq`;
  // erased by the decision.
  common::FlatMap<uint64_t, uint64_t> staged_shards_;
  // residency_[account] = shard holding its record, kNoShard when none.
  // Dense by account id; grown on demand.
  std::vector<uint32_t> residency_;
  // Migration target (null until the first BeginMigration).
  std::shared_ptr<const alloc::Allocation> target_;
  bool target_hash_fallback_ = false;
  std::vector<chain::AccountId> deferred_moves_;
};

}  // namespace txallo::state
