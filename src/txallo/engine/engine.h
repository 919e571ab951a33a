// Parallel sharded execution engine.
//
// ParallelEngine executes the paper's cost model (§III-B; sim/work_model.h)
// in the paper's system shape: shards are independent processors. The
// pieces:
//
//   * Ingest: SubmitBlock() routes each transaction by the current
//     alloc::Allocation snapshot (Allocation::RouteOf, the one account->shard
//     rule) into one staging buffer per shard.
//   * Shard lanes: each Tick() is one fork-join over a common::ForkJoinPool
//     of W lanes, shards striped across them (lane w owns shards s with
//     s % W == w — one lane per shard when threads >= shards). A tick
//     whose queued parts (weighted by the synthetic spin) fall below the
//     pool's inline threshold runs every lane on the driver; a larger one
//     runs lane 0 on the driver and lanes 1..W-1 on W-1 helper threads.
//     Each lane merges its shards' staged arrivals into their FIFOs and
//     executes one block of work per owned shard under the sim::WorkModel
//     cost semantics (η per cross part, λ capacity per block).
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
// Determinism: every submitted transaction carries an ingest *sequence tag*,
// its position in the submission order. The driver is the only producer, so
// each shard's staging buffer fills in tag order and the lane appends it
// unchanged to its FIFO at the next tick. Per-lane execution order is therefore
// a pure function of the submitted blocks and installed snapshots,
// independent of lane count and λ; with trace recording on
// (EnableTraceRecording), ExtractTrace() returns the canonical per-tick,
// per-shard prepare order and 2PC outcome stream that engine/replay.h
// serializes and replays bit-identically.
//
// Threading contract: the whole public API is driver API — SubmitBlock,
// InstallAllocation, Tick, Snapshot, DrainAndReport, ExtractTrace and the
// Enable* switches are called by one thread at a time, so the routing
// snapshot, the staging buffers, the 2PC coordinator and the logical clock
// need no lock. Everything a lane writes during a tick is the driver's
// again when Tick()'s fork-join returns. A mapping computed on another
// thread (engine::BackgroundAllocator) is handed to the driver, which
// installs it between ticks.
#pragma once

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
  /// [1, num_shards]. The engine spawns W-1 helper threads (none at W = 1).
  /// A tick with less work than common::kInlineWorkThreshold runs all W
  /// lanes on the thread that calls Tick() and leaves the helpers parked;
  /// a larger one runs lane 0 there and the rest on the helpers.
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
  bool operator==(const SimReport&) const = default;
};

/// SimReport plus engine-only observability.
struct EngineReport {
  /// The cost model's logical results.
  SimReport sim;
  uint32_t num_workers = 0;
  /// Per-shard high-water mark of arrivals staged between two ticks.
  std::vector<uint64_t> max_queue_depth;
  /// Total seconds the engine's W-1 helper threads spent parked between
  /// fanned-out ticks (0 with one lane). Only parks that have ended count:
  /// helpers stay parked through ticks that run inline on the driver, so
  /// the park in progress, which is the whole run when no tick reaches
  /// common::kInlineWorkThreshold, is not included. fanned_out_ticks says
  /// whether the helpers ran at all.
  double worker_stall_seconds = 0.0;
  /// Ticks whose lanes ran on the helper threads; every other tick ran
  /// inline on the driver (common::kInlineWorkThreshold). Always 0 with
  /// one lane.
  uint64_t fanned_out_ticks = 0;
  /// Allocation snapshots installed while running.
  uint64_t reallocations = 0;
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
  /// only. Deterministic across thread counts; p50/p99/p99.9 come
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
  /// into the shards' staging buffers. Transaction i carries sequence tag
  /// n + i, where n counts the transactions of every earlier call. Driver
  /// API (see the threading contract above). Stops at the first transaction
  /// it cannot route and returns why; the ones before it stay submitted.
  Status SubmitBlock(const std::vector<chain::Transaction>& transactions);

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
  /// SubmitBlock(). Driver API, between ticks; never stops the lanes. Fails
  /// if the snapshot is null or its shard count differs from the engine's.
  Status InstallAllocation(std::shared_ptr<const alloc::Allocation> next);

  /// Advances one block: every shard executes up to λ work in parallel;
  /// after the join, due cross-shard commit decisions are flushed.
  void Tick();

  /// Ticks until all queues drain and all commits land (bounded by
  /// `max_extra_blocks`), then reports.
  EngineReport DrainAndReport(uint64_t max_extra_blocks = 1'000'000);

  /// Report without draining.
  EngineReport Snapshot();

  uint64_t current_block() const { return now_; }
  const EngineConfig& config() const { return config_; }
  uint32_t num_workers() const { return num_workers_; }
  /// The snapshot ingest currently routes by (null before the first
  /// install when constructed without one). Driver-side.
  const std::shared_ptr<const alloc::Allocation>& allocation_snapshot()
      const {
    return routing_;
  }

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
  // Per-shard execution state, owned by the shard's lane during a tick's
  // fork-join and by the driver outside it.
  struct ShardLane {
    // Arrivals since the last tick, in sequence-tag order (the driver
    // submits in tag order); appended to the FIFO at the next tick.
    std::vector<WorkItem> staging;
    // Largest staging size seen (EngineReport::max_queue_depth).
    uint64_t staging_high_water = 0;
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
  // Driver-side, before the tick's fork-join: the parts the tick's lanes
  // will execute, weighted by the synthetic spin, in fork-join work items
  // (common/fork_join.h). Below kInlineWorkThreshold the lanes run on the
  // driver.
  uint64_t TickWorkEstimate();
  // Driver-side, before the tick's fork-join: applies any pending
  // allocation install to state residency (migrating records) and charges
  // the moved records as migration debt against the involved lanes' λ.
  void SyncStateResidency();

  const EngineConfig config_;
  TwoPhaseCoordinator coordinator_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;

  // Driver-only routing snapshot (copy-on-write, swapped by
  // InstallAllocation). snapshot_error_ remembers why a constructor-supplied
  // snapshot was rejected, so the first SubmitBlock fails with the cause
  // rather than "no snapshot".
  std::shared_ptr<const alloc::Allocation> routing_;
  std::string snapshot_error_;
  uint64_t reallocations_ = 0;
  // An install has been published whose residency migration has not run
  // yet (picked up by SyncStateResidency at the next tick).
  bool state_pending_sync_ = false;

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

  // Driver-only logical clock (advanced by Tick()) and the next ingest
  // sequence tag (advanced by SubmitBlock()).
  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  // Declared last so its helpers are joined before any lane is destroyed.
  common::ForkJoinPool pool_;
};

}  // namespace txallo::engine
