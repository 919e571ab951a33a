#include "txallo/engine/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "txallo/chain/block.h"
#include "txallo/common/stopwatch.h"
#include "txallo/engine/background_allocator.h"
#include "txallo/engine/replay.h"
#include "txallo/mempool/offered_load.h"
#include "txallo/sim/reconfig.h"
#include "txallo/workload/stream.h"

namespace txallo::engine {

Result<AllocatorMode> ParseAllocatorMode(const std::string& name) {
  if (name == "sync") return AllocatorMode::kDriverSync;
  if (name == "deferred") return AllocatorMode::kDriverDeferred;
  if (name == "background") return AllocatorMode::kBackground;
  return Status::InvalidArgument("unknown allocator mode '" + name +
                                 "' (expected sync, deferred or background)");
}

const char* AllocatorModeName(AllocatorMode mode) {
  switch (mode) {
    case AllocatorMode::kDriverSync:
      return "sync";
    case AllocatorMode::kDriverDeferred:
      return "deferred";
    case AllocatorMode::kBackground:
      return "background";
  }
  return "unknown";
}

Result<IngestMode> ParseIngestMode(const std::string& name) {
  if (name == "closed") return IngestMode::kClosedLoop;
  if (name == "open") return IngestMode::kOpenLoop;
  return Status::InvalidArgument("unknown ingest mode '" + name +
                                 "' (expected closed or open)");
}

const char* IngestModeName(IngestMode mode) {
  switch (mode) {
    case IngestMode::kClosedLoop:
      return "closed";
    case IngestMode::kOpenLoop:
      return "open";
  }
  return "unknown";
}

namespace {

// One RunReallocatedStream invocation. The closed- and open-loop drivers
// share everything but the tick loop itself: validation, bootstrap, the
// install path and its accounts_moved accounting, the replay install
// stream, the per-window engine-delta metrics, the allocator-mode boundary
// schedule, and the drain/trace epilogue. Keeping them as methods of one
// object (rather than two near-copies of a 300-line function) is what makes
// "open-loop replays exactly like closed-loop" checkable by inspection.
class PipelineRun {
 public:
  PipelineRun(const chain::Ledger& ledger, allocator::OnlineAllocator* alloc,
              ParallelEngine* engine, const PipelineConfig& config)
      : ledger_(ledger),
        alloc_(alloc),
        engine_(engine),
        config_(config),
        replay_(config.replay),
        recording_(config.record != nullptr || config.replay != nullptr) {}

  Result<PipelineResult> Run();

 private:
  /// The run's logical configuration, resolved once: shard count, work
  /// model and state backend from the engine, size and fingerprint from
  /// the ledger, and the driving fields (epoch cadence, ingest mode,
  /// open-loop parameters, workload spec) from the trace on replay and
  /// from the pipeline config otherwise. The replay guard compares it with
  /// the trace, the run reads its driving parameters from it, and a
  /// recording stores it.
  ReplayLog::Meta ResolveMeta() const;
  bool OpenLoop() const {
    return meta_.ingest_mode == static_cast<uint8_t>(IngestMode::kOpenLoop);
  }
  Status Validate();
  Status Bootstrap();
  /// Publishes `next` and charges the account-migration delta (the very
  /// first snapshot has no predecessor to migrate from).
  Status Install(std::shared_ptr<const alloc::Allocation> next);
  /// Replay-side install source: applies every recorded snapshot whose
  /// block has been reached (block 0 before the first submission, epoch
  /// boundaries after their window's last tick).
  Status ApplyDueInstalls(uint64_t* applied);
  /// Engine-delta counters of the window [first_block, last_block) against
  /// the previous snapshot.
  StepMetrics WindowMetrics(const EngineReport& snap, uint64_t first_block,
                            uint64_t last_block);
  /// The allocator-mode boundary schedule (rebalance / install / launch).
  Status EpochBoundary(StepMetrics& metrics);
  /// Stream exhausted with a background rebalance still in flight: finish
  /// and commit it so the allocator ends in the same state as the driver
  /// schedules, but skip the install — no traffic left for it to route.
  Status FinishInFlightBackground(StepMetrics& metrics);
  /// Shared per-window close: runs the boundary logic (replay install
  /// application, or the allocator-mode schedule when more traffic
  /// follows), accumulates wall-clock sums, appends the step.
  Status CloseWindow(StepMetrics metrics, bool more_traffic);

  Status RunClosedLoop();
  Status RunOpenLoop();
  /// Latency samples of every commit decided since the last call.
  void RecordObservedCommits(common::Histogram* window_hist);
  Status CloseOpenLoopWindow(const mempool::OfferedLoadGenerator& generator,
                             mempool::Mempool& pool,
                             common::Histogram* window_hist,
                             uint64_t window_first, bool more_traffic);
  Status Epilogue();

  const chain::Ledger& ledger_;
  allocator::OnlineAllocator* const alloc_;
  ParallelEngine* const engine_;
  const PipelineConfig& config_;
  const ReplayLog* const replay_;
  const bool recording_;

  ReplayLog::Meta meta_;

  PipelineResult result_;
  ReplayLog observed_;  // Built along the run when recording.
  std::shared_ptr<const alloc::Allocation> current_;
  // Optional background allocation worker (never needed on replay — the
  // recorded install stream stands in for the allocator entirely).
  std::optional<BackgroundAllocator> background_;
  // kDriverDeferred: the mapping computed at the previous boundary,
  // awaiting its install at this one.
  std::shared_ptr<const alloc::Allocation> held_;
  size_t install_cursor_ = 0;
  EngineReport prev_;
  uint64_t step_ = 0;

  // Open-loop state. Engine sequence tags are assigned contiguously in
  // dispatch order, so a dense vector maps seq -> submit tick.
  std::vector<uint64_t> submit_tick_of_seq_;
  uint64_t offered_prev_ = 0;
  mempool::AdmissionStats admission_prev_;
};

ReplayLog::Meta PipelineRun::ResolveMeta() const {
  // Fields the run ignores (open-loop ones in a closed loop, state ones
  // with the backend off) stay zero, as ReplayLog::Meta documents.
  ReplayLog::Meta meta;
  if (replay_ != nullptr) {
    meta = replay_->meta;
    // A replay that names no workload runs under the trace's.
    if (!config_.workload_spec.empty()) {
      meta.workload_spec = config_.workload_spec;
    }
  } else {
    meta.blocks_per_epoch = config_.blocks_per_epoch;
    meta.ingest_mode = static_cast<uint8_t>(config_.ingest_mode);
    meta.workload_spec = config_.workload_spec;
    if (config_.ingest_mode == IngestMode::kOpenLoop) {
      const OpenLoopConfig& open = config_.open_loop;
      meta.offered_load = open.offered_load;
      meta.dispatch_per_tick = open.dispatch_per_tick;
      meta.fee_levels = open.fee_levels;
      meta.fee_seed = open.fee_seed;
      meta.mempool_capacity = open.mempool.capacity;
      meta.mempool_staging_capacity = open.mempool.staging_capacity;
      meta.account_pending_limit = open.mempool.account_pending_limit;
      meta.account_rate_limit = open.mempool.account_rate_limit;
      meta.ttl_ticks = open.mempool.ttl_ticks;
      meta.admission_policy = static_cast<uint8_t>(open.mempool.policy);
    }
  }
  const EngineConfig& ec = engine_->config();
  meta.num_shards = ec.num_shards;
  meta.eta = ec.work.eta;
  meta.capacity_per_block = ec.work.capacity_per_block;
  meta.cross_shard_commit_rounds = ec.work.cross_shard_commit_rounds;
  meta.state_enabled = ec.state.enabled;
  meta.state_initial_balance = ec.state.enabled ? ec.state.initial_balance : 0;
  meta.state_migration_work =
      ec.state.enabled ? ec.state.migration_work_per_account : 0.0;
  meta.ledger_blocks = ledger_.num_blocks();
  meta.ledger_transactions = ledger_.num_transactions();
  // The one full-ledger hash of a run, only when a trace is written or
  // checked.
  meta.ledger_fingerprint = recording_ ? FingerprintLedger(ledger_) : 0;
  return meta;
}

Status PipelineRun::Validate() {
  // On replay the driving fields come from the trace, and an in-memory log
  // never went through the loader's range check.
  TXALLO_RETURN_NOT_OK(CheckReplayMeta(meta_));
  if (meta_.blocks_per_epoch == 0) {
    return Status::InvalidArgument("blocks_per_epoch must be positive");
  }
  if (!engine_->config().hash_route_unassigned) {
    return Status::InvalidArgument(
        "RunReallocatedStream requires EngineConfig::hash_route_unassigned: "
        "accounts created since the last epoch have no shard in the "
        "allocator's snapshot and must hash-route until the next Rebalance");
  }
  if (OpenLoop() && !(meta_.offered_load > 0.0)) {
    return Status::InvalidArgument(
        "open-loop ingest needs a positive offered_load (transactions per "
        "tick)");
  }
  // A trace covers a run from block 0 with no traffic before it; ingested
  // transactions that predate recording would leave phantom events (or, on
  // replay, divergent streams) that only surface as a late Internal error
  // instead of this loud one.
  if ((recording_ || OpenLoop()) &&
      (engine_->current_block() != 0 ||
       engine_->Snapshot().sim.submitted != 0)) {
    return Status::InvalidArgument(
        recording_ ? "record/replay needs a fresh engine: the trace must "
                     "cover the run from block 0 with no prior submissions"
                   : "open-loop ingest needs a fresh engine: commit "
                     "observation must precede the first submission");
  }
  if (replay_ != nullptr) {
    // Every meta field must match: the engine and ledger ones name a wrong
    // configuration or input, the driving ones are the trace's own.
    ReplayLog recorded;
    ReplayLog resolved;
    recorded.meta = replay_->meta;
    resolved.meta = meta_;
    const std::string mismatch = DescribeTraceDivergence(recorded, resolved);
    if (!mismatch.empty()) {
      return Status::InvalidArgument("replay trace does not match this run: " +
                                     mismatch);
    }
    if (engine_->allocation_snapshot() != nullptr) {
      // The trace provides the initial mapping; a pre-installed snapshot
      // would skew the accounts_moved accounting of the first install.
      return Status::InvalidArgument(
          "replay needs an engine without a pre-installed allocation "
          "snapshot: the trace's install stream provides the initial "
          "mapping");
    }
  }
  return Status::OK();
}

Status PipelineRun::Install(std::shared_ptr<const alloc::Allocation> next) {
  if (current_ != nullptr) {
    result_.accounts_moved +=
        sim::CompareAllocations(*current_, *next).accounts_moved;
  }
  if (recording_) {
    observed_.installs.push_back(
        InstallEvent{engine_->current_block(), *next});
  }
  TXALLO_RETURN_NOT_OK(engine_->InstallAllocation(next));
  current_ = std::move(next);
  return Status::OK();
}

Status PipelineRun::ApplyDueInstalls(uint64_t* applied) {
  if (applied != nullptr) *applied = 0;
  if (replay_ == nullptr) return Status::OK();
  while (install_cursor_ < replay_->installs.size() &&
         replay_->installs[install_cursor_].block <=
             engine_->current_block()) {
    TXALLO_RETURN_NOT_OK(Install(std::make_shared<const alloc::Allocation>(
        replay_->installs[install_cursor_].allocation)));
    ++install_cursor_;
    if (applied != nullptr) ++(*applied);
  }
  return Status::OK();
}

Status PipelineRun::Bootstrap() {
  if (replay_ != nullptr) {
    return ApplyDueInstalls(nullptr);
  }
  if (current_ == nullptr) {
    current_ = std::make_shared<const alloc::Allocation>(
        alloc_->CurrentAllocation());
    TXALLO_RETURN_NOT_OK(engine_->InstallAllocation(current_));
  }
  if (recording_) {
    // The mapping in force from block 0 — whether just bootstrapped or
    // pre-installed by the caller — leads the install stream.
    observed_.installs.push_back(InstallEvent{0, *current_});
  }
  return Status::OK();
}

StepMetrics PipelineRun::WindowMetrics(const EngineReport& snap,
                                       uint64_t first_block,
                                       uint64_t last_block) {
  StepMetrics metrics;
  metrics.step = step_;
  metrics.first_block = first_block;
  metrics.last_block = last_block;
  metrics.submitted = snap.sim.submitted - prev_.sim.submitted;
  metrics.committed = snap.sim.committed - prev_.sim.committed;
  metrics.cross_shard_submitted =
      snap.sim.cross_shard_submitted - prev_.sim.cross_shard_submitted;
  const uint64_t blocks = last_block - first_block;
  if (blocks > 0) {
    metrics.throughput_per_block =
        static_cast<double>(metrics.committed) / static_cast<double>(blocks);
  }
  if (metrics.submitted > 0) {
    metrics.cross_shard_ratio =
        static_cast<double>(metrics.cross_shard_submitted) /
        static_cast<double>(metrics.submitted);
  }
  metrics.aborted = snap.aborted - prev_.aborted;
  metrics.accounts_migrated = snap.accounts_migrated - prev_.accounts_migrated;
  prev_ = snap;
  return metrics;
}

Status PipelineRun::EpochBoundary(StepMetrics& metrics) {
  switch (config_.allocator_mode) {
    case AllocatorMode::kDriverSync:
    case AllocatorMode::kDriverDeferred: {
      // Both rebalance on the driver; kDriverDeferred installs the mapping
      // one boundary late, the logical schedule of kBackground.
      if (held_ != nullptr) {
        TXALLO_RETURN_NOT_OK(Install(std::move(held_)));
        metrics.installed = true;
      }
      ++result_.epochs;
      Stopwatch watch;
      Result<alloc::Allocation> rebalanced = alloc_->Rebalance();
      if (!rebalanced.ok()) return rebalanced.status();
      const double seconds = watch.ElapsedSeconds();
      metrics.alloc_seconds = seconds;
      metrics.alloc_wait_seconds = seconds;
      auto next = std::make_shared<const alloc::Allocation>(
          std::move(rebalanced.value()));
      if (config_.allocator_mode == AllocatorMode::kDriverDeferred) {
        held_ = std::move(next);
      } else {
        TXALLO_RETURN_NOT_OK(Install(std::move(next)));
        metrics.installed = true;
      }
      break;
    }
    case AllocatorMode::kBackground: {
      // With allow_epoch_overrun, a Run() still executing at the boundary
      // skips this update entirely (no Collect stall, no new task — the
      // in-flight one keeps running) and the mapping lands at the next
      // boundary it is ready for.
      bool skipped = false;
      if (background_->busy()) {
        std::optional<BackgroundAllocator::Outcome> outcome;
        if (config_.allow_epoch_overrun) {
          Result<std::optional<BackgroundAllocator::Outcome>> polled =
              background_->TryCollect();
          if (!polled.ok()) return polled.status();
          outcome = std::move(polled.value());
          if (!outcome.has_value()) {
            skipped = true;
            ++result_.overrun_boundaries;
          }
        } else {
          Result<BackgroundAllocator::Outcome> collected =
              background_->Collect();
          if (!collected.ok()) return collected.status();
          outcome = std::move(collected.value());
        }
        if (outcome.has_value()) {
          TXALLO_RETURN_NOT_OK(outcome->task->Commit());
          if (!outcome->mapping.ok()) return outcome->mapping.status();
          metrics.alloc_seconds = outcome->run_seconds;
          metrics.alloc_wait_seconds = outcome->wait_seconds;
          TXALLO_RETURN_NOT_OK(
              Install(std::make_shared<const alloc::Allocation>(
                  std::move(outcome->mapping.value()))));
          metrics.installed = true;
        }
      }
      if (!skipped) {
        ++result_.epochs;
        // No synchronous fallback: a null task (none can be outstanding
        // here) fails Launch().
        TXALLO_RETURN_NOT_OK(background_->Launch(alloc_->BeginRebalance()));
      }
      break;
    }
  }
  return Status::OK();
}

Status PipelineRun::FinishInFlightBackground(StepMetrics& metrics) {
  Result<BackgroundAllocator::Outcome> outcome = background_->Collect();
  if (!outcome.ok()) return outcome.status();
  TXALLO_RETURN_NOT_OK(outcome->task->Commit());
  if (!outcome->mapping.ok()) return outcome->mapping.status();
  metrics.alloc_seconds = outcome->run_seconds;
  metrics.alloc_wait_seconds = outcome->wait_seconds;
  return Status::OK();
}

Status PipelineRun::CloseWindow(StepMetrics metrics, bool more_traffic) {
  if (replay_ != nullptr) {
    // The recorded install stream stands in for the allocator: apply every
    // snapshot due at this boundary, and carry the recorded run's
    // wall-clock observations through verbatim (they are not reproducible;
    // the logical schedule is).
    uint64_t applied = 0;
    TXALLO_RETURN_NOT_OK(ApplyDueInstalls(&applied));
    metrics.installed = applied > 0;
    if (metrics.step < replay_->steps.size()) {
      metrics.alloc_seconds = replay_->steps[metrics.step].alloc_seconds;
      metrics.alloc_wait_seconds =
          replay_->steps[metrics.step].alloc_wait_seconds;
    }
  } else if (more_traffic) {
    // Epoch boundary. The trailing window never reaches here — it gets no
    // update (nothing left for a new mapping to route).
    TXALLO_RETURN_NOT_OK(EpochBoundary(metrics));
  } else if (background_.has_value() && background_->busy()) {
    TXALLO_RETURN_NOT_OK(FinishInFlightBackground(metrics));
  }
  // (kDriverDeferred's final held mapping is dropped for the same
  // trailing-skip reason; its compute time was charged when it ran.)

  result_.alloc_seconds += metrics.alloc_seconds;
  result_.alloc_wait_seconds += metrics.alloc_wait_seconds;
  result_.steps.push_back(metrics);
  ++step_;
  return Status::OK();
}

Status PipelineRun::RunClosedLoop() {
  workload::BlockWindowStream epochs(&ledger_, meta_.blocks_per_epoch);
  while (!epochs.Done()) {
    const workload::BlockWindowStream::Window window = epochs.Next();
    for (size_t b = window.first_block_index; b < window.last_block_index;
         ++b) {
      const chain::Block& block = ledger_.blocks()[b];
      TXALLO_RETURN_NOT_OK(engine_->SubmitBlock(block.transactions()));
      engine_->Tick();
      if (replay_ == nullptr) alloc_->ApplyBlock(block);
    }
    StepMetrics metrics =
        WindowMetrics(engine_->Snapshot(), window.first_block_index,
                      window.last_block_index);
    TXALLO_RETURN_NOT_OK(CloseWindow(std::move(metrics), !epochs.Done()));
  }
  return Status::OK();
}

void PipelineRun::RecordObservedCommits(common::Histogram* window_hist) {
  for (const TwoPhaseCoordinator::Decision& decision :
       engine_->TakeObservedCommits()) {
    // An abort never served anyone; only commits get a latency sample.
    if (decision.aborted) continue;
    const uint64_t latency =
        decision.block - submit_tick_of_seq_[decision.seq];
    if (window_hist != nullptr) window_hist->Record(latency);
    result_.e2e_latency_ticks.Record(latency);
  }
}

Status PipelineRun::CloseOpenLoopWindow(
    const mempool::OfferedLoadGenerator& generator, mempool::Mempool& pool,
    common::Histogram* window_hist, uint64_t window_first,
    bool more_traffic) {
  StepMetrics metrics = WindowMetrics(engine_->Snapshot(), window_first,
                                      engine_->current_block());
  metrics.offered = generator.released() - offered_prev_;
  offered_prev_ = generator.released();
  const mempool::AdmissionStats admission = pool.stats();
  metrics.admitted = admission.admitted - admission_prev_.admitted;
  metrics.admission_dropped =
      admission.dropped() - admission_prev_.dropped();
  admission_prev_ = admission;
  metrics.mempool_depth = pool.live_size();
  metrics.mempool_peak_depth = admission.peak_depth;
  metrics.latency_p50_ticks = window_hist->Percentile(50.0);
  metrics.latency_p99_ticks = window_hist->Percentile(99.0);
  metrics.latency_p999_ticks = window_hist->Percentile(99.9);
  *window_hist = common::Histogram();
  return CloseWindow(std::move(metrics), more_traffic);
}

Status PipelineRun::RunOpenLoop() {
  // Commit observation feeds the latency histograms; Validate() pinned the
  // engine fresh, so this precedes every registration.
  engine_->EnableCommitObservation();

  // The caller's config keeps the physical knobs; the admission
  // parameters are the run's.
  mempool::MempoolConfig pool_config = config_.open_loop.mempool;
  pool_config.capacity = meta_.mempool_capacity;
  pool_config.account_pending_limit = meta_.account_pending_limit;
  pool_config.account_rate_limit = meta_.account_rate_limit;
  pool_config.ttl_ticks = meta_.ttl_ticks;
  pool_config.policy =
      static_cast<mempool::AdmissionPolicy>(meta_.admission_policy);
  // Staging holds any single tick's offer, so TrySubmit never refuses an
  // arrival and every drop decision happens at the seal, in pool_seq order.
  const size_t tick_offer =
      static_cast<size_t>(std::ceil(meta_.offered_load)) + 1;
  pool_config.staging_capacity =
      std::max<size_t>(meta_.mempool_staging_capacity, tick_offer);
  mempool::Mempool pool(pool_config);
  mempool::OfferedLoadGenerator generator(
      ledger_, mempool::OfferedLoadConfig{meta_.offered_load,
                                          meta_.fee_levels, meta_.fee_seed});
  const size_t dispatch_cap = meta_.dispatch_per_tick == 0
                                  ? std::numeric_limits<size_t>::max()
                                  : meta_.dispatch_per_tick;

  std::vector<mempool::OfferedTx> released;
  common::Histogram window_hist;
  uint64_t window_first = engine_->current_block();
  uint32_t ticks_in_window = 0;
  // The run ends when the generator is exhausted AND the pool has fully
  // drained — staging empties every seal, deferrals retry every seal, and
  // dispatch removes live entries, so the conjunction always arrives.
  while (!(generator.Done() && pool.live_size() == 0 &&
           pool.deferred_size() == 0 && pool.staged_size() == 0)) {
    const uint64_t now = engine_->current_block();

    // 1. Offer this tick's arrivals into staging.
    released.clear();
    generator.ReleaseTick(&released);
    if (!released.empty()) {
      const uint64_t seq_base = pool.ReserveSequenceRange(released.size());
      for (size_t i = 0; i < released.size(); ++i) {
        pool.TrySubmit(*released[i].tx, released[i].fee, now, seq_base + i);
      }
    }

    // 2. Seal: admission control for tick `now`.
    pool.SealTick(now);

    // 3. Dispatch the fee-priority prefix to the engine.
    std::vector<mempool::PendingTx> batch = pool.TakeBatch(dispatch_cap);
    std::vector<chain::Transaction> block_txs;
    block_txs.reserve(batch.size());
    for (mempool::PendingTx& pending : batch) {
      submit_tick_of_seq_.push_back(pending.submit_tick);
      block_txs.push_back(std::move(pending.tx));
    }
    TXALLO_RETURN_NOT_OK(engine_->SubmitBlock(block_txs));
    engine_->Tick();

    // 4. End-to-end latency of every commit this tick decided.
    RecordObservedCommits(&window_hist);

    if (replay_ == nullptr) {
      alloc_->ApplyBlock(chain::Block(now, std::move(block_txs)));
    }

    ++ticks_in_window;
    if (ticks_in_window == meta_.blocks_per_epoch) {
      const bool drained = generator.Done() && pool.live_size() == 0 &&
                           pool.deferred_size() == 0 &&
                           pool.staged_size() == 0;
      TXALLO_RETURN_NOT_OK(CloseOpenLoopWindow(generator, pool, &window_hist,
                                               window_first, !drained));
      window_first = engine_->current_block();
      ticks_in_window = 0;
    }
  }
  if (ticks_in_window > 0) {
    TXALLO_RETURN_NOT_OK(CloseOpenLoopWindow(generator, pool, &window_hist,
                                             window_first,
                                             /*more_traffic=*/false));
  }
  result_.admission = pool.stats();
  return Status::OK();
}

Status PipelineRun::Epilogue() {
  if (result_.alloc_seconds > 0.0) {
    result_.alloc_overlap_ratio = std::clamp(
        1.0 - result_.alloc_wait_seconds / result_.alloc_seconds, 0.0, 1.0);
  }
  // Drain the engine, and close the series with a final partial step when
  // draining ticked extra blocks (pending commit rounds or residual λ
  // backlog): commits landing after the last ledger block would otherwise
  // belong to no step, so the per-step series would silently undercount
  // the run total (a blocks_per_epoch larger than the stream made the
  // whole tail vanish into a single short window).
  const uint64_t stream_end_block = engine_->current_block();
  result_.report = engine_->DrainAndReport();
  // Commits decided during the drain still owe their latency samples.
  common::Histogram drain_hist;
  if (OpenLoop()) {
    RecordObservedCommits(&drain_hist);
  }
  if (result_.report.sim.blocks_elapsed > stream_end_block) {
    StepMetrics tail = WindowMetrics(result_.report, stream_end_block,
                                     result_.report.sim.blocks_elapsed);
    if (OpenLoop()) {
      tail.latency_p50_ticks = drain_hist.Percentile(50.0);
      tail.latency_p99_ticks = drain_hist.Percentile(99.0);
      tail.latency_p999_ticks = drain_hist.Percentile(99.9);
      tail.mempool_peak_depth = result_.admission.peak_depth;
    }
    result_.steps.push_back(tail);
  }

  if (replay_ != nullptr) {
    // Boundary-rebalance count and wall-clock aggregates come from the
    // recorded run (no allocator ran here; the per-step copies above
    // re-accumulated its alloc/wait sums bit-identically already).
    result_.epochs = replay_->epochs;
  }
  if (recording_) {
    observed_.meta = meta_;
    observed_.steps = result_.steps;
    observed_.alloc_seconds = result_.alloc_seconds;
    observed_.alloc_wait_seconds = result_.alloc_wait_seconds;
    observed_.alloc_overlap_ratio = result_.alloc_overlap_ratio;
    observed_.epochs = result_.epochs;
    observed_.accounts_moved = result_.accounts_moved;
    ParallelEngine::Trace trace = engine_->ExtractTrace();
    observed_.prepares = std::move(trace.prepares);
    observed_.commits = std::move(trace.commits);
    observed_.state_roots = std::move(trace.state_roots);
    if (replay_ != nullptr) {
      const std::string divergence =
          DescribeTraceDivergence(*replay_, observed_);
      if (!divergence.empty()) {
        return Status::Internal("replay diverged from the recorded trace: " +
                                divergence);
      }
    }
    if (config_.record != nullptr) *config_.record = std::move(observed_);
  }
  return Status::OK();
}

Result<PipelineResult> PipelineRun::Run() {
  if (engine_ == nullptr || (alloc_ == nullptr && replay_ == nullptr)) {
    return Status::InvalidArgument(
        "RunReallocatedStream needs a non-null allocator and engine");
  }
  meta_ = ResolveMeta();
  TXALLO_RETURN_NOT_OK(Validate());
  if (recording_) engine_->EnableTraceRecording();

  current_ = engine_->allocation_snapshot();
  if (replay_ == nullptr &&
      config_.allocator_mode == AllocatorMode::kBackground) {
    background_.emplace();
  }

  TXALLO_RETURN_NOT_OK(Bootstrap());
  prev_ = engine_->Snapshot();
  if (OpenLoop()) {
    TXALLO_RETURN_NOT_OK(RunOpenLoop());
  } else {
    TXALLO_RETURN_NOT_OK(RunClosedLoop());
  }
  TXALLO_RETURN_NOT_OK(Epilogue());
  return std::move(result_);
}

}  // namespace

Result<PipelineResult> RunReallocatedStream(const chain::Ledger& ledger,
                                            allocator::OnlineAllocator* alloc,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config) {
  PipelineRun run(ledger, alloc, engine, config);
  return run.Run();
}

}  // namespace txallo::engine
