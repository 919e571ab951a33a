#include "traced_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "txallo/chain/block.h"
#include "txallo/common/stopwatch.h"
#include "txallo/engine/background_allocator.h"
#include "txallo/engine/ingest_router.h"
#include "txallo/mempool/cleaner.h"
#include "txallo/mempool/offered_load.h"
#include "txallo/mempool/submit_router.h"
#include "txallo/sim/reconfig.h"
#include "txallo/workload/stream.h"

namespace perf {

using namespace txallo;

int32_t SpanRecorder::Open(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, kDriverLane, Since(Clock::now()), 0, parent});
  open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Since(Clock::now());
  open_.pop_back();
}

void SpanRecorder::AddForeign(const char* name, uint32_t lane, int32_t parent,
                              Clock::time_point start,
                              Clock::time_point end) {
  spans_.push_back(Span{name, lane, Since(start), Since(end), parent});
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& child : spans_) {
    if (child.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(child.parent)];
    if (parent.lane != child.lane) continue;
    const int64_t covered = std::min(child.end_ns, parent.end_ns) -
                            std::max(child.start_ns, parent.start_ns);
    if (covered > 0) self[static_cast<size_t>(child.parent)] -= covered;
  }
  return self;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  const std::vector<int64_t> self = SelfTimes();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
      << kDriverLane << ", \"args\": {\"name\": \"driver\"}},\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
      << kAllocatorLane
      << ", \"args\": {\"name\": \"background allocator\"}}";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"self_us\": %.3f}}",
                  span.name, layer.c_str(), span.lane,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  span.parent, static_cast<double>(self[i]) / 1e3);
    out << buf;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

namespace {

using engine::AllocatorMode;
using engine::EngineReport;
using engine::IngestMode;
using engine::PipelineResult;
using engine::StepMetrics;

/// Times RebalanceTask::Run() on whatever thread runs it. The driver reads
/// the two time points only after BackgroundAllocator::Collect() returned,
/// which orders them after the worker's writes.
class TimedTask : public allocator::RebalanceTask {
 public:
  explicit TimedTask(std::unique_ptr<allocator::RebalanceTask> inner)
      : inner_(std::move(inner)) {}

  Result<alloc::Allocation> Run() override {
    start = SpanRecorder::Clock::now();
    Result<alloc::Allocation> mapping = inner_->Run();
    end = SpanRecorder::Clock::now();
    return mapping;
  }
  Status Commit() override { return inner_->Commit(); }

  SpanRecorder::Clock::time_point start;
  SpanRecorder::Clock::time_point end;

 private:
  std::unique_ptr<allocator::RebalanceTask> inner_;
};

uint64_t AdmissionDrops(const mempool::AdmissionStats& stats) {
  return stats.dropped_capacity + stats.dropped_account_pending +
         stats.dropped_account_rate + stats.dropped_backpressure;
}

// Mirrors pipeline.cc's PipelineRun for the schedules listed in the header;
// each library call sits in its own span.
class TracedRun {
 public:
  TracedRun(const chain::Ledger& ledger, allocator::OnlineAllocator* alloc,
            engine::ParallelEngine* engine,
            const engine::PipelineConfig& config, SpanRecorder* spans)
      : ledger_(ledger),
        alloc_(alloc),
        engine_(engine),
        config_(config),
        spans_(spans) {}

  Result<PipelineResult> Run();

 private:
  EngineReport Snapshot() {
    ScopedSpan span(spans_, "engine.snapshot");
    return engine_->Snapshot();
  }
  Status Submit(const std::vector<chain::Transaction>& txs) {
    ScopedSpan span(spans_, "engine.submit");
    return router_ ? router_->SubmitBlock(txs) : engine_->SubmitBlock(txs);
  }
  void Tick() {
    ScopedSpan span(spans_, "engine.tick");
    engine_->Tick();
  }
  void Apply(const chain::Block& block) {
    ScopedSpan span(spans_, "allocator.apply");
    alloc_->ApplyBlock(block);
  }
  Status Install(std::shared_ptr<const alloc::Allocation> next);
  StepMetrics WindowMetrics(const EngineReport& snap, uint64_t first_block,
                            uint64_t last_block);
  /// Collects the in-flight background task and commits it.
  Result<alloc::Allocation> CollectBackground(StepMetrics& metrics);
  Status EpochBoundary(StepMetrics& metrics);
  Status CloseWindow(StepMetrics metrics, bool more_traffic);
  Status RunClosedLoop();
  Status RunOpenLoop();
  void RecordObservedCommits(common::Histogram* window_hist);
  Status CloseOpenLoopWindow(const mempool::OfferedLoadGenerator& generator,
                             mempool::Mempool& pool,
                             common::Histogram* window_hist,
                             uint64_t window_first, bool more_traffic);
  void Epilogue();

  const chain::Ledger& ledger_;
  allocator::OnlineAllocator* const alloc_;
  engine::ParallelEngine* const engine_;
  const engine::PipelineConfig& config_;
  SpanRecorder* const spans_;

  PipelineResult result_;
  std::shared_ptr<const alloc::Allocation> current_;
  std::optional<engine::IngestRouter> router_;
  std::optional<engine::BackgroundAllocator> background_;
  int32_t launch_span_ = -1;
  EngineReport prev_;
  uint64_t step_ = 0;
  std::vector<uint64_t> submit_tick_of_seq_;
  uint64_t offered_prev_ = 0;
  mempool::AdmissionStats admission_prev_;
};

Status TracedRun::Install(std::shared_ptr<const alloc::Allocation> next) {
  if (current_ != nullptr) {
    ScopedSpan span(spans_, "allocator.compare");
    result_.accounts_moved +=
        sim::CompareAllocations(*current_, *next).accounts_moved;
  }
  {
    ScopedSpan span(spans_, "engine.install");
    TXALLO_RETURN_NOT_OK(engine_->InstallAllocation(next));
  }
  current_ = std::move(next);
  return Status::OK();
}

StepMetrics TracedRun::WindowMetrics(const EngineReport& snap,
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

Result<alloc::Allocation> TracedRun::CollectBackground(StepMetrics& metrics) {
  Result<engine::BackgroundAllocator::Outcome> outcome =
      Status::Internal("not collected");
  {
    ScopedSpan span(spans_, "allocator.wait");
    outcome = background_->Collect();
  }
  if (!outcome.ok()) return outcome.status();
  const auto* timed = static_cast<const TimedTask*>(outcome->task.get());
  spans_->AddForeign("allocator.run", kAllocatorLane, launch_span_,
                     timed->start, timed->end);
  {
    ScopedSpan span(spans_, "allocator.commit");
    TXALLO_RETURN_NOT_OK(outcome->task->Commit());
  }
  metrics.alloc_seconds = outcome->run_seconds;
  metrics.alloc_wait_seconds = outcome->wait_seconds;
  return std::move(outcome->mapping);
}

Status TracedRun::EpochBoundary(StepMetrics& metrics) {
  if (config_.allocator_mode == AllocatorMode::kDriverSync) {
    ++result_.epochs;
    Result<alloc::Allocation> rebalanced = Status::Internal("not run");
    Stopwatch watch;
    {
      ScopedSpan span(spans_, "allocator.rebalance");
      rebalanced = alloc_->Rebalance();
    }
    if (!rebalanced.ok()) return rebalanced.status();
    metrics.alloc_seconds = watch.ElapsedSeconds();
    metrics.alloc_wait_seconds = metrics.alloc_seconds;
    TXALLO_RETURN_NOT_OK(Install(std::make_shared<const alloc::Allocation>(
        std::move(rebalanced.value()))));
    metrics.installed = true;
    return Status::OK();
  }
  if (background_->busy()) {
    Result<alloc::Allocation> mapping = CollectBackground(metrics);
    if (!mapping.ok()) return mapping.status();
    TXALLO_RETURN_NOT_OK(Install(std::make_shared<const alloc::Allocation>(
        std::move(mapping.value()))));
    metrics.installed = true;
  }
  ++result_.epochs;
  ScopedSpan span(spans_, "allocator.begin");
  std::unique_ptr<allocator::RebalanceTask> task = alloc_->BeginRebalance();
  if (task == nullptr) {
    return Status::InvalidArgument(
        "traced driver needs a strategy that supports BeginRebalance()");
  }
  launch_span_ = span.id();
  return background_->Launch(std::make_unique<TimedTask>(std::move(task)));
}

Status TracedRun::CloseWindow(StepMetrics metrics, bool more_traffic) {
  if (more_traffic) {
    TXALLO_RETURN_NOT_OK(EpochBoundary(metrics));
  } else if (background_.has_value() && background_->busy()) {
    // Last window: finish and commit the in-flight task, no install.
    Result<alloc::Allocation> mapping = CollectBackground(metrics);
    if (!mapping.ok()) return mapping.status();
  }
  result_.alloc_seconds += metrics.alloc_seconds;
  result_.alloc_wait_seconds += metrics.alloc_wait_seconds;
  result_.steps.push_back(metrics);
  ++step_;
  return Status::OK();
}

Status TracedRun::RunClosedLoop() {
  workload::BlockWindowStream epochs(&ledger_, config_.blocks_per_epoch);
  while (!epochs.Done()) {
    const workload::BlockWindowStream::Window window = epochs.Next();
    for (size_t b = window.first_block_index; b < window.last_block_index;
         ++b) {
      const chain::Block& block = ledger_.blocks()[b];
      TXALLO_RETURN_NOT_OK(Submit(block.transactions()));
      Tick();
      Apply(block);
    }
    StepMetrics metrics = WindowMetrics(
        Snapshot(), window.first_block_index, window.last_block_index);
    TXALLO_RETURN_NOT_OK(CloseWindow(std::move(metrics), !epochs.Done()));
  }
  return Status::OK();
}

void TracedRun::RecordObservedCommits(common::Histogram* window_hist) {
  std::vector<engine::TwoPhaseCoordinator::Decision> decisions;
  {
    ScopedSpan span(spans_, "engine.observe");
    decisions = engine_->TakeObservedCommits();
  }
  for (const engine::TwoPhaseCoordinator::Decision& decision : decisions) {
    if (decision.aborted) continue;
    const uint64_t latency = decision.block - submit_tick_of_seq_[decision.seq];
    if (window_hist != nullptr) window_hist->Record(latency);
    result_.e2e_latency_ticks.Record(latency);
  }
}

Status TracedRun::CloseOpenLoopWindow(
    const mempool::OfferedLoadGenerator& generator, mempool::Mempool& pool,
    common::Histogram* window_hist, uint64_t window_first,
    bool more_traffic) {
  StepMetrics metrics =
      WindowMetrics(Snapshot(), window_first, engine_->current_block());
  metrics.offered = generator.released() - offered_prev_;
  offered_prev_ = generator.released();
  const mempool::AdmissionStats admission = pool.stats();
  metrics.admitted = admission.admitted - admission_prev_.admitted;
  metrics.admission_dropped =
      AdmissionDrops(admission) - AdmissionDrops(admission_prev_);
  admission_prev_ = admission;
  metrics.mempool_depth = pool.live_size();
  metrics.mempool_peak_depth = admission.peak_depth;
  metrics.latency_p50_ticks = window_hist->Percentile(50.0);
  metrics.latency_p99_ticks = window_hist->Percentile(99.0);
  metrics.latency_p999_ticks = window_hist->Percentile(99.9);
  *window_hist = common::Histogram();
  return CloseWindow(std::move(metrics), more_traffic);
}

Status TracedRun::RunOpenLoop() {
  engine_->EnableCommitObservation();
  const engine::OpenLoopConfig& open = config_.open_loop;
  mempool::MempoolConfig pool_config = open.mempool;
  const size_t tick_offer =
      static_cast<size_t>(std::ceil(open.offered_load)) + 1;
  pool_config.staging_capacity =
      std::max(pool_config.staging_capacity, tick_offer);
  mempool::Mempool pool(pool_config);
  std::optional<mempool::MempoolCleaner> cleaner;
  if (open.cleaner) cleaner.emplace(&pool);
  std::optional<mempool::SubmitRouter> submitters;
  if (config_.ingest_producers >= 2) {
    submitters.emplace(&pool, config_.ingest_producers);
  }
  mempool::OfferedLoadGenerator generator(
      ledger_, mempool::OfferedLoadConfig{open.offered_load, open.fee_levels,
                                          open.fee_seed});
  const size_t dispatch_cap = open.dispatch_per_tick == 0
                                  ? std::numeric_limits<size_t>::max()
                                  : open.dispatch_per_tick;

  std::vector<mempool::OfferedTx> released;
  std::vector<chain::Transaction> tx_buf;
  std::vector<uint64_t> fee_buf;
  common::Histogram window_hist;
  uint64_t window_first = engine_->current_block();
  uint32_t ticks_in_window = 0;
  const auto drained = [&] {
    return generator.Done() && pool.live_size() == 0 &&
           pool.deferred_size() == 0 && pool.staged_size() == 0;
  };
  while (!drained()) {
    const uint64_t now = engine_->current_block();
    released.clear();
    {
      ScopedSpan span(spans_, "mempool.release");
      generator.ReleaseTick(&released);
    }
    if (!released.empty()) {
      ScopedSpan span(spans_, "mempool.submit");
      const uint64_t seq_base = pool.ReserveSequenceRange(released.size());
      if (submitters) {
        tx_buf.clear();
        fee_buf.clear();
        for (const mempool::OfferedTx& offer : released) {
          tx_buf.push_back(*offer.tx);
          fee_buf.push_back(offer.fee);
        }
        submitters->SubmitBatch(tx_buf.data(), fee_buf.data(), tx_buf.size(),
                                now, seq_base);
      } else {
        for (size_t i = 0; i < released.size(); ++i) {
          pool.TrySubmit(*released[i].tx, released[i].fee, now, seq_base + i);
        }
      }
    }
    {
      ScopedSpan span(spans_, "mempool.seal");
      pool.SealTick(now);
    }
    std::vector<mempool::PendingTx> batch;
    {
      ScopedSpan span(spans_, "mempool.take");
      batch = pool.TakeBatch(dispatch_cap);
    }
    std::vector<chain::Transaction> block_txs;
    block_txs.reserve(batch.size());
    for (mempool::PendingTx& pending : batch) {
      submit_tick_of_seq_.push_back(pending.submit_tick);
      block_txs.push_back(std::move(pending.tx));
    }
    TXALLO_RETURN_NOT_OK(Submit(block_txs));
    Tick();
    RecordObservedCommits(&window_hist);
    Apply(chain::Block(now, std::move(block_txs)));

    ++ticks_in_window;
    if (ticks_in_window == config_.blocks_per_epoch) {
      TXALLO_RETURN_NOT_OK(CloseOpenLoopWindow(generator, pool, &window_hist,
                                               window_first, !drained()));
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

void TracedRun::Epilogue() {
  if (result_.alloc_seconds > 0.0) {
    result_.alloc_overlap_ratio = std::clamp(
        1.0 - result_.alloc_wait_seconds / result_.alloc_seconds, 0.0, 1.0);
  }
  const uint64_t stream_end_block = engine_->current_block();
  {
    ScopedSpan span(spans_, "engine.drain");
    result_.report = engine_->DrainAndReport();
  }
  common::Histogram drain_hist;
  const bool open = config_.ingest_mode == IngestMode::kOpenLoop;
  if (open) RecordObservedCommits(&drain_hist);
  if (result_.report.sim.blocks_elapsed > stream_end_block) {
    StepMetrics tail = WindowMetrics(result_.report, stream_end_block,
                                     result_.report.sim.blocks_elapsed);
    if (open) {
      tail.latency_p50_ticks = drain_hist.Percentile(50.0);
      tail.latency_p99_ticks = drain_hist.Percentile(99.0);
      tail.latency_p999_ticks = drain_hist.Percentile(99.9);
      tail.mempool_peak_depth = result_.admission.peak_depth;
    }
    result_.steps.push_back(tail);
  }
}

Result<PipelineResult> TracedRun::Run() {
  if (config_.allocator_mode == AllocatorMode::kDriverDeferred ||
      config_.allow_epoch_overrun || config_.record != nullptr ||
      config_.replay != nullptr || config_.blocks_per_epoch == 0 ||
      alloc_ == nullptr || !engine_->config().hash_route_unassigned) {
    return Status::InvalidArgument(
        "traced driver supports sync and background schedules only, with a "
        "positive epoch, an allocator and hash_route_unassigned");
  }
  current_ = engine_->allocation_snapshot();
  if (config_.ingest_producers >= 2) {
    router_.emplace(engine_, config_.ingest_producers);
  }
  if (config_.allocator_mode == AllocatorMode::kBackground) {
    background_.emplace();
  }
  if (current_ == nullptr) {
    {
      ScopedSpan span(spans_, "allocator.current");
      current_ = std::make_shared<const alloc::Allocation>(
          alloc_->CurrentAllocation());
    }
    ScopedSpan span(spans_, "engine.install");
    TXALLO_RETURN_NOT_OK(engine_->InstallAllocation(current_));
  }
  prev_ = Snapshot();
  if (config_.ingest_mode == IngestMode::kOpenLoop) {
    TXALLO_RETURN_NOT_OK(RunOpenLoop());
  } else {
    TXALLO_RETURN_NOT_OK(RunClosedLoop());
  }
  Epilogue();
  return std::move(result_);
}

}  // namespace

Result<engine::PipelineResult> RunTracedStream(
    const chain::Ledger& ledger, allocator::OnlineAllocator* alloc,
    engine::ParallelEngine* engine, const engine::PipelineConfig& config,
    SpanRecorder* spans) {
  TracedRun run(ledger, alloc, engine, config, spans);
  return run.Run();
}

}  // namespace perf
