// Account-state primitives for the real execution backend (txallo::state).
//
// The engine executed an abstract cost model until this subsystem existed:
// 2PC aborts reverted nothing and reallocation was a free mapping edit.
// state/ gives shards real per-account state — a balance and a sequence
// number, speedex-memory_database-style — so cross-shard aborts have
// something to revert and account migration has something to move. The
// pieces:
//
//   * AccountState         — the committed record (this header).
//   * Op / TransferPlan    — one transaction's per-account effects, derived
//                            deterministically from the transaction and its
//                            ingest sequence tag (state/transfer_plan.h).
//   * ShardStateDb         — one shard's records with commit-thunk staging
//                            (state/shard_state_db.h).
//   * MerkleTrie           — per-shard fingerprint, brought up to date
//                            when a root is read (state/merkle.h).
//   * StateDb              — the k-shard composite the engine drives
//                            (state/state_db.h).
#pragma once

#include <cstdint>

#include "txallo/chain/account.h"

namespace txallo::state {

/// The committed record of one account: spendable balance and a sequence
/// number bumped once per committed debit (the nonce a replay-protected
/// chain would check).
struct AccountState {
  int64_t balance = 0;
  uint64_t sequence = 0;
  bool operator==(const AccountState&) const = default;
};

/// Sentinel for Op::require_sequence: no nonce check.
inline constexpr uint64_t kAnySequence = UINT64_MAX;

/// One account's effect within one transaction: the amount it must pay
/// (checked and reserved at prepare) and the amount it receives (applied at
/// commit). An account appearing on both sides of a transfer carries both.
struct Op {
  chain::AccountId account = chain::kInvalidAccount;
  int64_t debit = 0;
  int64_t credit = 0;
  /// When != kAnySequence, staging fails unless the account's committed
  /// sequence number matches (bad nonce -> deterministic abort).
  uint64_t require_sequence = kAnySequence;
  bool operator==(const Op&) const = default;
};

/// Configuration of the account-state backend, carried inside EngineConfig.
/// Disabled by default: the engine then executes the pure cost model
/// exactly as before this subsystem existed.
struct StateConfig {
  bool enabled = false;
  /// Balance an account is funded with when first touched (lazy creation;
  /// workload generators expose the matching knob so streams execute
  /// without mass aborts).
  int64_t initial_balance = 1'000'000;
  /// λ work units charged to a shard per account record it sends or
  /// receives when an allocation install migrates state (the real cost a
  /// mapping edit never had).
  double migration_work_per_account = 1.0;
};

}  // namespace txallo::state
