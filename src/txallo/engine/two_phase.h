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
// Memory: the coordinator retires each transaction once it and every
// older one are decided. It retains only the window from the oldest
// undecided transaction to the newest registered one, in fixed-size chunks
// of entries freed as the window passes them, so a long run holds no
// history.
//
// Thread-safety: none, and none needed. Only the engine's driver thread
// calls in: Register() from SubmitBlock, the votes, flushes and reads
// between ticks, after the tick's lanes have joined. Lanes never touch the
// coordinator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "txallo/common/histogram.h"
#include "txallo/sim/work_model.h"

namespace txallo::engine {

/// One 2PC decision, keyed by the transaction's ingest sequence tag (the
/// stable identity a replay matches on; the runtime tx_index handle is
/// not recorded). Recorded by the coordinator when event
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
  /// ascending, whatever order the decisions of one block were issued in.
  /// Driver-side, between ticks.
  std::vector<CommitEvent> CanonicalCommitEvents() const;

  /// One participant's vote, cast at block `block`: ok = PREPARED, !ok =
  /// the part failed its state checks. When it is the last vote: any
  /// failed vote aborts the transaction at `block`; a unanimous
  /// intra-shard transaction commits at `block`; a unanimous cross-shard
  /// one is scheduled for `model.CommitBlock(block, true)`.
  void PartExecuted(uint64_t tx_index, uint64_t block, bool ok);

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
  bool Idle() const { return stats_.in_flight == 0 && delayed_.empty(); }

  /// Transactions whose entries are still held: the window from the oldest
  /// undecided transaction to the newest registered one (0 when Idle()).
  size_t retained() const { return next_ - base_; }

  CommitStats stats() const { return stats_; }

  /// Exact histogram of commit latency (decision block − arrival block) in
  /// blocks, commits only — an abort never served anyone. Built from
  /// per-decision integers, so it is bit-identical across thread counts.
  const common::Histogram& LatencyHistogram() const { return latency_hist_; }

 private:
  struct TxEntry {
    uint64_t arrival_block;
    uint64_t seq;
    uint32_t parts_remaining;
    bool cross_shard;
    /// A participant's vote failed; the decision will be an abort.
    bool abort_pending;
    /// Decided: retired once every older entry is decided too.
    bool decided;
  };

  // 4,096 entries (96 KB) a chunk: one allocation per 4,096 registrations,
  // and at most one partly retired chunk held beyond the window.
  static constexpr uint64_t kChunkBits = 12;
  static constexpr uint64_t kChunkMask = (uint64_t{1} << kChunkBits) - 1;
  TxEntry& Entry(uint64_t tx_index) {
    return chunks_[(tx_index >> kChunkBits) - (base_ >> kChunkBits)]
                  [tx_index & kChunkMask];
  }
  void Decide(uint64_t tx_index, uint64_t decision_block, bool aborted);

  const sim::WorkModel model_;
  // The retained window [base_, next_): chunks_[c] holds the entries of
  // chunk (base_ >> kChunkBits) + c, tx_index >> kChunkBits naming a chunk.
  std::vector<std::unique_ptr<TxEntry[]>> chunks_;
  uint64_t base_ = 0;
  uint64_t next_ = 0;
  // (commit_block, tx) pairs. All prepares of one tick land at the same
  // block and ticks advance monotonically, so commit blocks are
  // non-decreasing front to back and flushing pops from the front.
  std::deque<std::pair<uint64_t, uint64_t>> delayed_;
  CommitStats stats_;
  bool record_events_ = false;
  std::vector<CommitEvent> events_;
  bool collect_decisions_ = false;
  std::vector<Decision> decisions_;
  common::Histogram latency_hist_;
};

}  // namespace txallo::engine
