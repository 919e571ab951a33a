// Epoch-based online reallocation: any allocator::OnlineAllocator driving
// the parallel engine, as a three-stage pipeline (ingest ∥ execution ∥
// allocation).
//
// The allocator absorbs committed blocks (ApplyBlock); every
// `blocks_per_epoch` blocks its mapping refreshes and the result is
// published to the engine as a fresh copy-on-write snapshot via
// InstallAllocation() (a pause-free shared_ptr swap; the engine reports the
// cost as `realloc_pause_seconds`). Every schedule runs the strategy's one
// rebalance implementation (OnlineAllocator::BeginRebalance()'s task); they
// differ only in where Run() executes and when the result installs:
//
//   * kDriverSync      — the classic loop: Rebalance() (the task's
//                        Begin → Run → Commit in place) on the driver at the
//                        boundary, install immediately. Shards idle for
//                        `alloc_seconds` each epoch.
//   * kDriverDeferred  — Rebalance() on the driver at the boundary, install
//                        at the NEXT boundary. Same stall, but the exact
//                        logical schedule of kBackground — its determinism
//                        baseline.
//   * kBackground      — BeginRebalance() freezes the state at the boundary
//                        (the allocator keeps absorbing blocks), Run()
//                        executes on a BackgroundAllocator worker while the
//                        next epoch streams, and the result commits +
//                        installs at the next boundary. There is no
//                        synchronous fallback: a strategy returning no task
//                        with none in flight fails the run. Allocation
//                        latency is overlapped with execution;
//                        `alloc_overlap_ratio` reports how much. Install
//                        points are pinned to logical block boundaries, so
//                        per-step metrics are deterministic and identical
//                        to kDriverDeferred at equal inputs (the parity
//                        tests assert bit-equality).
//
// Ingest can fan out too: `ingest_producers >= 2` routes every block
// through an IngestRouter — N producer lanes, the driver plus N-1 helper
// threads of a common::ForkJoinPool, each routing one slice into the
// engine's per-shard staging buffers — instead of the driver alone.
//
// Ingest modes: the classic driver is *closed-loop* — it feeds one ledger
// block per tick, so the arrival rate automatically tracks the service rate
// and queueing delay is invisible. `ingest_mode = kOpenLoop` decouples
// them: an OfferedLoadGenerator releases the ledger's transactions at a
// fixed rate per tick into a mempool::Mempool (fee ordering, admission
// control, backpressure), the driver seals and dispatches the fee-priority
// prefix each tick, and every committed transaction's end-to-end latency
// (commit tick − submit tick) lands in exact histograms: per-window
// p50/p99/p99.9 in StepMetrics, the full distribution in PipelineResult.
// The clock stays logical, so latency ticks, admission drops and queue
// depths are bit-identical across thread and producer counts, and
// record/replay covers open-loop runs exactly like closed-loop ones (the
// trace meta carries the offered-load and mempool parameters).
//
// Record/replay: PipelineConfig::record captures the run's deterministic
// trace (per-tick, per-shard prepare order, 2PC outcome stream, install
// boundaries, step series) into a ReplayLog; PipelineConfig::replay
// re-executes a recorded trace — installs land on the recorded block
// boundaries instead of consulting the allocator, and the run is verified
// bit-identical to the log. See engine/replay.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/histogram.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "txallo/mempool/mempool.h"

namespace txallo::engine {

class ReplayLog;  // engine/replay.h

/// When and where epoch rebalances run (see file header).
enum class AllocatorMode {
  kDriverSync,
  kDriverDeferred,
  kBackground,
};

/// "sync" | "deferred" | "background" -> AllocatorMode (bench flags).
Result<AllocatorMode> ParseAllocatorMode(const std::string& name);
const char* AllocatorModeName(AllocatorMode mode);

/// How the driver feeds the engine (see file header).
enum class IngestMode {
  /// One ledger block per tick; arrivals track service.
  kClosedLoop,
  /// Offered-load generator → mempool → fee-priority dispatch per tick.
  kOpenLoop,
};

/// "closed" | "open" -> IngestMode (bench flags).
Result<IngestMode> ParseIngestMode(const std::string& name);
const char* IngestModeName(IngestMode mode);

/// Open-loop driving parameters (ignored in kClosedLoop).
struct OpenLoopConfig {
  /// Target arrival rate in transactions per tick (may be fractional).
  /// Must be > 0.
  double offered_load = 8.0;
  /// Max transactions dispatched from the mempool per tick; 0 = no cap
  /// (the engine's λ is then the only service bound).
  uint32_t dispatch_per_tick = 0;
  /// Fee distribution of the generated arrivals (offered_load.h).
  uint32_t fee_levels = 16;
  uint64_t fee_seed = 0x9e3779b97f4a7c15ULL;
  /// Admission-control parameters. staging_capacity is raised to hold a
  /// whole tick's offer so every drop decision happens at the
  /// deterministic seal, never in producer timing.
  mempool::MempoolConfig mempool;
  /// Run a background MempoolCleaner (physical compaction only — outputs
  /// are identical with it on, off, or racing).
  bool cleaner = true;
};

struct PipelineConfig {
  /// Reallocation cadence in blocks (the paper's τ1 update window). The
  /// global-refresh cadence (τ2) is the allocator's own business — e.g.
  /// "txallo-hybrid:global-every=4".
  uint32_t blocks_per_epoch = 50;
  /// Allocation schedule (see file header). kDriverSync reproduces the
  /// historical single-driver loop.
  AllocatorMode allocator_mode = AllocatorMode::kDriverSync;
  /// Ingest fan-out: >= 2 routes blocks through an IngestRouter with this
  /// many producer lanes (lane 0 is the driver); 0/1 submits from the
  /// driver. In kOpenLoop the same count also sizes the mempool's
  /// SubmitRouter.
  uint32_t ingest_producers = 0;
  /// Closed-loop (feed one ledger block per tick) or open-loop (offered
  /// load through the mempool; see file header). On replay the recorded
  /// mode wins.
  IngestMode ingest_mode = IngestMode::kClosedLoop;
  /// Open-loop driving parameters; ignored unless ingest_mode == kOpenLoop.
  OpenLoopConfig open_loop;
  /// Multi-epoch allocation lookahead (kBackground only): when a
  /// RebalanceTask overruns its epoch, skip this boundary — keep ticking —
  /// and install the mapping at the next boundary it is ready for, instead
  /// of blocking the tick loop (`alloc_wait_seconds`). Off by default: the
  /// blocking schedule is the determinism baseline (bit-identical to
  /// kDriverDeferred); with overrun skipping, install points depend on
  /// allocator wall time. Recorded runs still replay bit-identically —
  /// the trace pins the install blocks that actually happened.
  bool allow_epoch_overrun = false;
  /// Workload spec the ledger was generated from ("name:key=val,..." from
  /// the scenario registry; empty for programmatic ledgers). Purely
  /// descriptive for the run itself, but recorded into the trace meta, and
  /// on replay a non-empty value must match the recorded one — so a trace
  /// replayed against a regenerated scenario fails loudly on a workload
  /// mix-up instead of only via the ledger fingerprint.
  std::string workload_spec;
  /// When set, the run records its deterministic trace here (the engine
  /// must be fresh — no prior submissions or ticks).
  ReplayLog* record = nullptr;
  /// When set, re-executes the recorded trace instead of running the
  /// allocator: `alloc` may be null, blocks_per_epoch and allocator_mode
  /// come from the log, and threads/ingest_producers are free to differ —
  /// the run is verified bit-identical to the log (prepare order, 2PC
  /// outcomes, step series) and diverging returns an Internal error.
  const ReplayLog* replay = nullptr;
};

/// Block-level metrics of one pipeline step (= one epoch window): the
/// timeline *series* Fig. 9/10-style benches plot, rather than end-of-run
/// aggregates. Counter fields are deltas within the window. The series ends
/// with a final partial step covering the post-stream drain whenever
/// draining ticks extra blocks (commit rounds or residual backlog), so
/// per-step `committed` always sums to the run total.
struct StepMetrics {
  uint64_t step = 0;
  /// Logical block range [first_block, last_block) of the window. One Tick
  /// per ledger block, so these are ledger block indices for stream steps;
  /// the trailing drain step extends past the ledger.
  uint64_t first_block = 0;
  uint64_t last_block = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t cross_shard_submitted = 0;
  /// committed / blocks-in-window.
  double throughput_per_block = 0.0;
  /// cross_shard_submitted / submitted (0 when nothing was submitted).
  double cross_shard_ratio = 0.0;
  /// Allocation wall time charged to this step's boundary update (the
  /// task's Run time in kBackground; the driver's Rebalance time
  /// otherwise). 0 for the trailing window.
  double alloc_seconds = 0.0;
  /// How long the driver actually stalled for that update (== alloc_seconds
  /// in the driver modes; the non-overlapped share in kBackground).
  double alloc_wait_seconds = 0.0;
  /// A refreshed mapping was published at the end of this window.
  bool installed = false;
  /// Transactions aborted by a failed state check in the window (state
  /// backend only; insufficient balance / bad nonce).
  uint64_t aborted = 0;
  /// Account records migrated between shard DBs in the window (state
  /// backend only; the migration-cost column — each record also charged
  /// migration work against its shards' λ).
  uint64_t accounts_migrated = 0;
  /// Open-loop ingest (kOpenLoop only; all zero in closed-loop runs).
  /// Transactions released by the offered-load generator in the window.
  uint64_t offered = 0;
  /// Transactions the mempool admitted in the window.
  uint64_t admitted = 0;
  /// Admission drops in the window (capacity + per-account pending +
  /// per-account rate + producer backpressure; TTL expiries are separate,
  /// see PipelineResult::admission).
  uint64_t admission_dropped = 0;
  /// Mempool live depth at window close.
  uint64_t mempool_depth = 0;
  /// Running peak live depth up to window close.
  uint64_t mempool_peak_depth = 0;
  /// End-to-end latency percentiles (commit tick − submit tick) over the
  /// window's commits, nearest-rank on the exact histogram.
  uint64_t latency_p50_ticks = 0;
  uint64_t latency_p99_ticks = 0;
  uint64_t latency_p999_ticks = 0;

  bool operator==(const StepMetrics&) const = default;
};

struct PipelineResult {
  EngineReport report;
  uint64_t epochs = 0;
  /// Wall-clock seconds spent computing allocation updates (the sum of
  /// every rebalance's run time, wherever it ran).
  double alloc_seconds = 0.0;
  /// Seconds of alloc_seconds the driver actually stalled for. In the
  /// driver modes this equals alloc_seconds; in kBackground it is the
  /// residue the next epoch's execution could not cover.
  double alloc_wait_seconds = 0.0;
  /// 1 - alloc_wait_seconds / alloc_seconds: the fraction of allocation
  /// latency hidden behind execution. 0 in the driver modes.
  double alloc_overlap_ratio = 0.0;
  /// Accounts whose shard changed across all *installed* reallocations
  /// (the mapping-level migration cost; sim::CompareAllocations). With the
  /// state backend on, report.accounts_migrated counts the records
  /// actually moved between shard DBs.
  uint64_t accounts_moved = 0;
  /// Epoch boundaries skipped because the rebalance task was still running
  /// (PipelineConfig::allow_epoch_overrun).
  uint64_t overrun_boundaries = 0;
  /// Open-loop only: end-of-run admission counters (submitted / admitted /
  /// drop reasons / TTL expiries / peak depth). Default-valued in
  /// closed-loop runs.
  mempool::AdmissionStats admission;
  /// Open-loop only: exact end-to-end latency distribution (commit tick −
  /// submit tick) over every committed transaction. Empty in closed-loop
  /// runs. Bit-identical across thread and producer counts.
  common::Histogram e2e_latency_ticks;
  /// Per-step timeline series, one entry per epoch window.
  std::vector<StepMetrics> steps;
};

/// Streams `ledger` through `engine` (one Tick per block) while `alloc`
/// learns the workload and republishes the mapping each epoch under the
/// configured schedule. The engine MUST be configured with
/// hash_route_unassigned = true — accounts born since the last epoch still
/// have to route, and the allocator's mapping only takes them over at the
/// next epoch boundary; a config without it is rejected with
/// InvalidArgument. If the engine has no snapshot yet, the allocator's
/// CurrentAllocation() is installed first.
///
/// Epoch accounting: with W windows there are W-1 boundary rebalances
/// (`epochs` == W-1) in every mode; the trailing window never gets an
/// update (nothing left to route). The deferred/background schedules
/// install each mapping one boundary later, so their last computed mapping
/// is committed to the allocator but not published (`report.reallocations`
/// is one lower than kDriverSync's).
///
/// In kOpenLoop the ledger is a transaction *pool* rather than a block
/// schedule: arrivals are paced by OpenLoopConfig::offered_load, windows
/// are blocks_per_epoch *ticks*, and the run ends when the generator is
/// exhausted and the mempool has fully drained (so low offered loads run
/// more ticks than the ledger has blocks). Requires a fresh engine (commit
/// observation must precede the first submission).
Result<PipelineResult> RunReallocatedStream(const chain::Ledger& ledger,
                                            allocator::OnlineAllocator* alloc,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config);

}  // namespace txallo::engine
