// Cross-shard two-phase commit coordinator.
//
// Each shard executes its part of a transaction and then votes
// part-by-part; once every participant shard has voted, the coordinator
// issues the decision. A unanimously-PREPARED intra-shard transaction
// commits in place; a cross-shard one pays the extra consensus round(s) of
// §I — the decision lands `cross_shard_commit_rounds` blocks after the
// last prepare (sim::WorkModel::CommitBlock), and its latency is charged at
// the block the decision is flushed. A transaction with any failed vote
// (insufficient balance / bad nonce against the state backend) ABORTS at
// the last-vote block: an abort needs no extra consensus round —
// participants simply drop their staged thunks.
//
// Thread-safety: Register() is called concurrently by ingest producers;
// PartExecuted()/FlushDelayed()/stats() are driver-side, after each tick's
// lanes have joined. Everything is
// guarded by one annotated mutex (common/sync.h; Clang -Wthread-safety
// checks the discipline) — the coordinator is touched once per transaction
// part, not per work unit, so contention is bounded by routing fan-out.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "txallo/common/histogram.h"
#include "txallo/common/sync.h"
#include "txallo/sim/work_model.h"

namespace txallo::engine {

/// One 2PC decision, keyed by the transaction's ingest sequence tag (the
/// stable identity that survives producer-count changes; the runtime
/// tx_index handle does not). Recorded by the coordinator when event
/// recording is on — the "2PC outcome stream" of a replay trace
/// (engine/replay.h). `aborted` decisions exist only with the state
/// backend on; the pure cost model never fails a vote.
struct CommitEvent {
  /// Block at which the decision landed.
  uint64_t block = 0;
  /// Ingest sequence tag of the transaction.
  uint64_t seq = 0;
  bool cross_shard = false;
  bool aborted = false;
  bool operator==(const CommitEvent&) const = default;
};

/// Aggregate commit-protocol counters (a superset of what SimReport needs).
struct CommitStats {
  uint64_t submitted = 0;
  uint64_t cross_shard_submitted = 0;
  uint64_t committed = 0;
  uint64_t cross_shard_committed = 0;
  /// Transactions aborted by a failed vote (state backend only).
  uint64_t aborted = 0;
  uint64_t cross_shard_aborted = 0;
  /// Total votes received (== executed transaction parts).
  uint64_t prepares_received = 0;
  /// Cross-shard transactions prepared but awaiting their commit round.
  uint64_t awaiting_commit_round = 0;
  /// Transactions registered but not yet fully voted.
  uint64_t in_flight = 0;
  double latency_sum_blocks = 0.0;
  double latency_max_blocks = 0.0;
};

class TwoPhaseCoordinator {
 public:
  explicit TwoPhaseCoordinator(sim::WorkModel model) : model_(model) {}

  /// Registers a transaction entering execution at `arrival_block` with
  /// `participants` distinct shards. `seq` is the transaction's ingest
  /// sequence tag, carried into recorded CommitEvents. Returns its
  /// transaction index (the handle the shard votes are cast with).
  uint64_t Register(uint64_t arrival_block, uint32_t participants,
                    bool cross_shard, uint64_t seq);

  /// Starts recording one CommitEvent per decision. Driver-side, before
  /// any registration.
  void EnableEventRecording();

  /// Starts collecting one Decision per decision for TakeDecisions() (the
  /// engine's state backend applies them). Driver-side, before any
  /// registration.
  void EnableDecisionCollection();

  /// The recorded outcome stream in canonical order: (block, seq)
  /// ascending — registration and voting interleavings across
  /// producer threads and engine lanes do not change it. Driver-side,
  /// between ticks.
  std::vector<CommitEvent> CanonicalCommitEvents() const;

  /// One participant's vote, cast at block `block`: ok = PREPARED, !ok =
  /// the part failed its state checks. When it is the last vote: any
  /// failed vote aborts the transaction at `block`; a unanimous
  /// intra-shard transaction commits at `block`; a unanimous cross-shard
  /// one is scheduled for `model.CommitBlock(block, true)`.
  void PartExecuted(uint64_t tx_index, uint64_t block, bool ok);

  /// Legacy PREPARED vote (always ok) — the pure cost model's path.
  void PartPrepared(uint64_t tx_index, uint64_t block) {
    PartExecuted(tx_index, block, /*ok=*/true);
  }

  /// Driver-side, once per block after the lanes join: commits every
  /// scheduled cross-shard transaction whose decision round has arrived.
  void FlushDelayed(uint64_t now);

  /// Decisions issued since the last call, in issue order (deterministic:
  /// votes are driver-applied in canonical lane order, flushes in schedule
  /// order). Empty unless EnableDecisionCollection() ran.
  struct Decision {
    uint64_t block = 0;
    uint64_t seq = 0;
    bool aborted = false;
  };
  std::vector<Decision> TakeDecisions();

  /// True when nothing is in flight or awaiting a commit round.
  bool Idle() const;

  CommitStats stats() const;

  /// Exact histogram of commit latency (decision block − arrival block) in
  /// blocks, commits only — an abort never served anyone. Built from
  /// per-decision integers, so it is bit-identical across thread counts.
  common::Histogram LatencyHistogram() const;

 private:
  struct TxEntry {
    uint64_t arrival_block;
    uint64_t seq;
    uint32_t parts_remaining;
    bool cross_shard;
    /// A participant's vote failed; the decision will be an abort.
    bool abort_pending;
  };

  void DecideLocked(uint64_t tx_index, uint64_t decision_block, bool aborted)
      TXALLO_REQUIRES(mu_);

  const sim::WorkModel model_;
  mutable common::Mutex mu_;
  std::vector<TxEntry> txs_ TXALLO_GUARDED_BY(mu_);
  // (commit_block, tx) pairs. All prepares of one tick land at the same
  // block and ticks advance monotonically, so commit blocks are
  // non-decreasing front to back and flushing pops from the front.
  std::deque<std::pair<uint64_t, uint64_t>> delayed_ TXALLO_GUARDED_BY(mu_);
  CommitStats stats_ TXALLO_GUARDED_BY(mu_);
  bool record_events_ TXALLO_GUARDED_BY(mu_) = false;
  std::vector<CommitEvent> events_ TXALLO_GUARDED_BY(mu_);
  bool collect_decisions_ TXALLO_GUARDED_BY(mu_) = false;
  std::vector<Decision> decisions_ TXALLO_GUARDED_BY(mu_);
  common::Histogram latency_hist_ TXALLO_GUARDED_BY(mu_);
};

}  // namespace txallo::engine
