// Parallel sharded execution engine.
//
// ParallelEngine executes the paper's cost model (§III-B; sim/work_model.h)
// in the paper's system shape: shards are independent processors. The
// pieces:
//
//   * Ingest: SubmitBlock() routes each transaction by the current
//     alloc::Allocation snapshot (Allocation::RouteOf, the one account->shard
//     rule) into one staging buffer per shard, each behind its own mutex.
//   * Shard lanes: each Tick() is one fork-join over a common::ForkJoinPool
//     of W lanes, shards striped across them (lane w owns shards s with
//     s % W == w — one lane per shard when threads >= shards). Lane 0 runs
//     on the driver, lanes 1..W-1 on W-1 helper threads. Each lane merges
//     its shards' staged arrivals into their FIFOs and executes one block
//     of work per owned shard under the sim::WorkModel cost semantics
//     (η per cross part, λ capacity per block).
//   * Cross-shard commits: after the fork-join the driver votes each
//     finished part PREPARED into a TwoPhaseCoordinator; cross-shard
//     transactions pay the extra commit round(s) of §I.
//   * Online reallocation: InstallAllocation() swaps in a new copy-on-write
//     std::shared_ptr<const Allocation> snapshot between block boundaries.
//     Lanes never read the allocation (routing happens at ingest), so the
//     swap never stops them — the epoch hook in engine/pipeline.h drives it
//     from core::TxAlloController.
//
// Time is logical, in blocks: Tick() advances every shard by one block in
// parallel and joins before commit decisions are flushed, so for a given
// submission sequence the SimReport numbers do not depend on the lane
// count.
//
// Determinism: every submitted transaction carries an ingest *sequence tag*
// (a position in a per-engine reservation counter; see
// ReserveSequenceRange). Producers may push into a shard's staging buffer in
// any interleaving — the lane sorts it and appends it to its FIFO in
// sequence order at the next tick, after all in-flight submissions have
// returned (the driver contract). Per-lane execution order is therefore a
// pure function of the submitted blocks and installed snapshots,
// independent of lane count, producer count and λ; with trace recording
// on (EnableTraceRecording), ExtractTrace() returns the canonical per-tick,
// per-shard prepare order and 2PC outcome stream that engine/replay.h
// serializes and replays bit-identically.
//
// Threading contract: ingest is multi-producer — SubmitBlock/
// SubmitTransactions may be called from any number of threads concurrently
// (the per-shard staging buffers are mutex-guarded, and so is the 2PC
// registry; engine/ingest_router.h is the fan-out driver). Tick/Snapshot/
// DrainAndReport/ExtractTrace and the Enable* switches are driver API — one
// thread at a time, and they must not overlap in-flight submissions (the
// logical clock advances between ingest phases, exactly like a block
// boundary). Everything a lane writes during a tick is the driver's again
// when Tick()'s fork-join returns. InstallAllocation is safe from any
// thread at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/fork_join.h"
#include "txallo/common/histogram.h"
#include "txallo/common/sha256.h"
#include "txallo/common/status.h"
#include "txallo/common/sync.h"
#include "txallo/engine/two_phase.h"
#include "txallo/sim/work_model.h"
#include "txallo/state/state_db.h"

namespace txallo::engine {

struct EngineConfig {
  uint32_t num_shards = 8;
  /// η/λ/commit-round cost semantics.
  sim::WorkModel work;
  /// Account-state backend (state/). Disabled by default: the engine then
  /// executes the pure cost model — every vote is PREPARED and installs
  /// are free mapping edits. Enabled, parts stage real debits/credits
  /// (insufficient balance -> deterministic abort), installs migrate
  /// account records between shard DBs (charged against λ), and each tick
  /// fingerprints the committed state with a Merkle root.
  state::StateConfig state;
  /// Execution lanes W; 0 = min(hardware threads, num_shards). Clamped to
  /// [1, num_shards]. Lane 0 runs on the thread that calls Tick(), so the
  /// engine spawns W-1 helper threads (none at W = 1).
  uint32_t num_threads = 0;
  /// Route accounts the snapshot has not placed by hash (account id mod k)
  /// instead of rejecting the block. What a live chain does for accounts
  /// created since the last allocation epoch; the reallocation pipeline
  /// turns this on.
  bool hash_route_unassigned = false;
  /// Synthetic CPU cost per work unit (iterations of an LCG spin),
  /// emulating real transaction execution so thread scaling is measurable.
  /// 0 (default) keeps execution pure bookkeeping, so tests and logical
  /// snapshots pay no synthetic cost.
  uint64_t spin_iterations_per_unit = 0;
};

/// One executed transaction part: the PREPARED vote a shard cast at a tick,
/// keyed by the transaction's ingest sequence tag. The per-lane event order
/// is the lane's execution order; ExtractTrace() returns the global stream
/// in canonical (block, shard, lane-position) order.
struct PrepareEvent {
  /// Tick at which the part finished executing (the vote's block).
  uint64_t block = 0;
  uint32_t shard = 0;
  /// Ingest sequence tag of the transaction.
  uint64_t seq = 0;
  bool operator==(const PrepareEvent&) const = default;
};

/// Merkle root of the committed account state at the end of a tick
/// (recorded only with the state backend on; replay verifies these
/// bit-identically — structural state verification, not just
/// trace-identity).
struct TickStateRoot {
  uint64_t block = 0;
  Sha256Digest root{};
  bool operator==(const TickStateRoot&) const = default;
};

/// Aggregated logical results of a run, in blocks and work units.
struct SimReport {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t cross_shard_submitted = 0;
  /// Committed transactions per elapsed block.
  double throughput_per_block = 0.0;
  /// Mean commit latency in blocks (arrival block -> commit block).
  double avg_latency_blocks = 0.0;
  double max_latency_blocks = 0.0;
  /// Mean over shards of (work processed / (capacity * blocks)).
  double mean_utilization = 0.0;
  /// Work still queued when the report was taken.
  double residual_work = 0.0;
  uint64_t blocks_elapsed = 0;
};

/// SimReport plus engine-only observability.
struct EngineReport {
  /// The cost model's logical results.
  SimReport sim;
  uint32_t num_workers = 0;
  /// Per-shard high-water mark of arrivals staged between two ticks.
  std::vector<uint64_t> max_queue_depth;
  /// Total seconds the engine's W-1 helper threads spent parked between
  /// ticks (0 with one lane).
  double worker_stall_seconds = 0.0;
  /// Allocation snapshots installed while running.
  uint64_t reallocations = 0;
  /// Total seconds ingest was blocked installing snapshots (the
  /// "reallocation pause"; copy-on-write keeps this near zero).
  double realloc_pause_seconds = 0.0;
  /// 2PC observability: PREPARED votes received and cross-shard commits.
  uint64_t prepares_received = 0;
  uint64_t cross_shard_committed = 0;
  /// Transactions aborted by a failed state check (state backend only).
  uint64_t aborted = 0;
  uint64_t cross_shard_aborted = 0;
  /// Account records moved between shard DBs by allocation installs
  /// (state backend only; the migration cost charged against λ).
  uint64_t accounts_migrated = 0;
  /// Exact commit-latency histogram in blocks (decision − arrival), commits
  /// only. Deterministic across thread/producer counts; p50/p99/p99.9 come
  /// straight out of it.
  common::Histogram commit_latency_blocks;
};

class ParallelEngine {
 public:
  /// Starts the lane pool. `initial` may be null — SubmitBlock then
  /// fails until InstallAllocation() provides a snapshot. An `initial`
  /// whose shard count differs from the engine's is rejected the same way
  /// InstallAllocation would reject it; SubmitBlock reports the mismatch.
  ParallelEngine(EngineConfig config,
                 std::shared_ptr<const alloc::Allocation> initial);

  /// Stops and joins the helper threads. Pending (unticked) work is
  /// discarded.
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Routes one block of transactions by the current allocation snapshot
  /// into the shards' staging buffers. Safe from multiple producer threads concurrently (see the threading
  /// contract above); equivalent to SubmitTransactions over the whole span.
  Status SubmitBlock(const std::vector<chain::Transaction>& transactions);

  /// Multi-producer ingest primitive: routes `count` transactions starting
  /// at `transactions` by the current allocation snapshot. Any number of
  /// producers may call this concurrently — per-transaction routing reads
  /// one copy-on-write snapshot, and the 2PC registry and the per-shard
  /// staging buffers are mutex-guarded. Must not overlap Tick()/Snapshot()/
  /// DrainAndReport() (driver API). Reserves this call's sequence range
  /// internally, so tags across *concurrent* callers follow reservation
  /// interleaving; coordinate with ReserveSequenceRange + the three-arg
  /// overload when deterministic order matters.
  Status SubmitTransactions(const chain::Transaction* transactions,
                            size_t count);

  /// Deterministic multi-producer ingest: transaction i carries sequence
  /// tag `first_seq + i`. Callers reserve tags up front (one
  /// ReserveSequenceRange per logical block, driver-side) and may then
  /// submit disjoint slices from any number of threads in any interleaving
  /// — per-lane execution order depends only on the tags, not the
  /// schedule. This is what IngestRouter does.
  Status SubmitTransactions(const chain::Transaction* transactions,
                            size_t count, uint64_t first_seq);

  /// Reserves `count` consecutive ingest sequence tags and returns the
  /// first. Safe from any thread; call once per logical block from the
  /// driver so sliced submissions stay deterministic.
  uint64_t ReserveSequenceRange(size_t count) {
    return ingest_seq_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Starts recording the deterministic execution trace (per-lane prepare
  /// events and 2PC commit events). Driver-side, before the first
  /// submission or tick; recording cannot be turned off again.
  void EnableTraceRecording();

  /// Starts collecting per-transaction 2PC decisions for the driver
  /// (TakeObservedCommits) — how the open-loop pipeline learns each
  /// transaction's commit tick to close its end-to-end latency sample.
  /// Driver-side, before the first submission or tick; cannot be turned
  /// off again.
  void EnableCommitObservation();

  /// Decisions issued since the last call, in deterministic issue order.
  /// Driver-side, between ticks. Empty unless EnableCommitObservation ran.
  std::vector<TwoPhaseCoordinator::Decision> TakeObservedCommits();

  /// The canonical recorded trace so far: prepares in (block, shard,
  /// lane-position) order, commits in (block, seq) order. Driver-side.
  /// Empty unless EnableTraceRecording() ran.
  struct Trace {
    std::vector<PrepareEvent> prepares;
    std::vector<CommitEvent> commits;
    /// Per-tick committed-state Merkle roots (state backend on only).
    std::vector<TickStateRoot> state_roots;
  };
  Trace ExtractTrace();

  /// Publishes a new allocation snapshot; takes effect from the next
  /// SubmitBlock(). Safe from any thread, never stops the lanes. Fails if
  /// the snapshot is null or its shard count differs from the engine's.
  Status InstallAllocation(std::shared_ptr<const alloc::Allocation> next);

  /// Advances one block: every shard executes up to λ work in parallel;
  /// after the join, due cross-shard commit decisions are flushed.
  void Tick();

  /// Ticks until all queues drain and all commits land (bounded by
  /// `max_extra_blocks`), then reports.
  EngineReport DrainAndReport(uint64_t max_extra_blocks = 1'000'000);

  /// Report without draining.
  EngineReport Snapshot();

  uint64_t current_block() const {
    return now_.load(std::memory_order_relaxed);
  }
  const EngineConfig& config() const { return config_; }
  uint32_t num_workers() const { return num_workers_; }
  /// The snapshot ingest currently routes by (null before the first
  /// install when constructed without one).
  std::shared_ptr<const alloc::Allocation> allocation_snapshot() const;

  /// The account-state backend, or nullptr when EngineConfig::state is
  /// disabled. Driver-side only, and only between ticks (the driver owns
  /// it exactly when it owns Tick()).
  state::StateDb* state() { return state_.get(); }
  const state::StateDb* state() const { return state_.get(); }

 private:
  struct WorkItem {
    uint64_t tx_index;
    uint64_t seq;
    double work_remaining;
    /// This part's staged effects (state backend on; empty otherwise).
    std::vector<state::Op> ops;
  };
  /// A part that finished executing this tick, parked by the owning lane
  /// for the driver to stage + vote after the join (in canonical lane
  /// order — which is what keeps state mutation deterministic and the
  /// state DB single-threaded).
  struct FinishedPart {
    uint64_t tx_index;
    uint64_t seq;
    std::vector<state::Op> ops;
  };
  // Per-shard execution state. The staging buffer is shared (producers
  // push under `mu`); everything below it is owned by the shard's lane
  // during a tick's fork-join and by the driver outside it.
  struct ShardLane {
    common::Mutex mu;
    // Arrivals in push (interleaving-dependent) order; sorted by sequence
    // tag into the FIFO at the next tick, once every in-flight submission
    // has returned. This step is what makes per-lane order
    // producer-schedule independent.
    std::vector<WorkItem> staging TXALLO_GUARDED_BY(mu);
    // Largest staging size seen (EngineReport::max_queue_depth).
    uint64_t staging_high_water TXALLO_GUARDED_BY(mu) = 0;
    std::deque<WorkItem> fifo;
    double processed_work = 0.0;
    // Prepare votes in execution order (only when recording; lane-written).
    std::vector<PrepareEvent> prepare_log;
    // Parts finished this tick; lane-written during the tick, drained by
    // the driver after the join (stage + vote), before the next tick.
    std::vector<FinishedPart> finished;
    // λ units still owed for account-record migration (state backend).
    // Driver-written before the tick's fork-join; lane-consumed off the top
    // of that tick's budget.
    double migration_debt = 0.0;
  };
  void ExecuteBlock(uint32_t shard, ShardLane& lane, uint64_t block,
                    bool record);
  // Driver-side, before the tick's fork-join: applies any pending
  // allocation install to state residency (migrating records) and charges
  // the moved records as migration debt against the involved lanes' λ.
  void SyncStateResidency();

  const EngineConfig config_;
  TwoPhaseCoordinator coordinator_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;

  // Routing snapshot (copy-on-write; swapped under its own mutex so
  // InstallAllocation is safe from any thread). snapshot_error_ remembers
  // why a constructor-supplied snapshot was rejected, so the first
  // SubmitBlock fails with the cause rather than "no snapshot".
  mutable common::Mutex routing_mu_;
  std::shared_ptr<const alloc::Allocation> routing_
      TXALLO_GUARDED_BY(routing_mu_);
  std::string snapshot_error_ TXALLO_GUARDED_BY(routing_mu_);
  uint64_t reallocations_ TXALLO_GUARDED_BY(routing_mu_) = 0;
  double realloc_pause_seconds_ TXALLO_GUARDED_BY(routing_mu_) = 0.0;
  // An install has been published whose residency migration has not run
  // yet (picked up by SyncStateResidency at the next tick).
  bool state_pending_sync_ TXALLO_GUARDED_BY(routing_mu_) = false;

  // Account-state backend. Allocated once in the constructor (null when
  // disabled); mutated by the driver only, outside the tick's fork-join —
  // lanes never touch it, which is why it needs no lock.
  const std::unique_ptr<state::StateDb> state_;
  // Driver-only state observability (same ownership as state_).
  uint64_t accounts_migrated_ = 0;
  std::vector<TickStateRoot> tick_roots_;
  // Driver-only commit observation (EnableCommitObservation): decisions the
  // driver has not collected yet. Touched only outside the tick's fork-join.
  bool observe_commits_ = false;
  std::vector<TwoPhaseCoordinator::Decision> observed_commits_;

  // Driver-only (EnableTraceRecording), read into each tick's lanes.
  bool record_trace_ = false;
  const uint32_t num_workers_;

  // Logical clock. Written by the driver in Tick(); read (relaxed) by
  // concurrent producers in SubmitTransactions — stable there because
  // submissions never overlap ticks (threading contract).
  std::atomic<uint64_t> now_{0};
  // Ingest sequence-tag reservation counter (ReserveSequenceRange).
  std::atomic<uint64_t> ingest_seq_{0};
  // Declared last so its helpers are joined before any lane is destroyed.
  common::ForkJoinPool pool_;
};

}  // namespace txallo::engine
