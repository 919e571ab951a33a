// perf_ledger: the repository's wall-clock benchmark.
//
// One process runs one pinned workload (bench/perf/README.md gives each
// workload's rationale and calibration). Every repetition generates the
// scenario ledger from --seed, builds a fresh allocator from the registry and
// a fresh ParallelEngine, and makes one untraced
// engine::RunReallocatedStream call. Set-up-only repetitions (the first two
// steps alone) run before each one, so setup_s has several samples per timed
// repetition. After one warm-up, timed repetitions run until --seconds of
// them have passed and at least three ran; wall-clock metrics are medians
// over them. With --trace 1 one more repetition runs through the bench-side
// traced driver (traced_pipeline.h), whose spans give the per-layer metrics.
//
//   perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--quick] [--json-out PATH] [--trace-events PATH]
//   perf_ledger --list
//
// stdout: one `workload metric value unit` line per metric, then one JSON
// line {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) that
// BENCHMARK.json lists. "attempted" counts repetitions and "failed" those
// whose call errored or whose output checks failed; any failure exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "traced_pipeline.h"
#include "txallo/allocator/registry.h"
#include "txallo/common/sha256.h"
#include "txallo/common/stopwatch.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/scenario_registry.h"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace txallo;
using engine::AllocatorMode;
using engine::IngestMode;

// ---------------------------------------------------------------------------
// Workloads. lambda (per-shard work units per tick) and offered_load (tx per
// tick) are the calibrated values recorded in the README; a recalibration
// edits them here.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* scenario;
  uint64_t accounts;
  uint64_t blocks;
  uint64_t txs_per_block;
  uint32_t shards;
  const char* allocator;
  IngestMode ingest;
  AllocatorMode mode;
  bool state;
  int64_t balance;
  uint32_t producers;
  /// Blocks (closed loop) or ticks (open loop) per epoch.
  uint32_t epoch;
  double lambda;
  double offered_load;
  /// Set-up-only repetitions before each timed one: 1 where set-up takes
  /// seconds (1M accounts), 2 where it takes a tenth of the run.
  uint32_t extra_setups;
};

constexpr Workload kWorkloads[] = {
    {"closed-hash-1m", "ethereum", 1'000'000, 2000, 1000, 64, "hash",
     IngestMode::kClosedLoop, AllocatorMode::kDriverSync, false, 1'000'000, 0,
     50, 240.0, 0.0, 1},
    {"closed-hybrid-drift", "ethereum:drift-interval=200", 100'000, 400, 1000,
     16, "txallo-hybrid:global-every=4", IngestMode::kClosedLoop,
     AllocatorMode::kDriverSync, false, 1'000'000, 0, 16, 440.0, 0.0, 2},
    {"open-stress-state", "stress:shards=16", 50'000, 300, 1000, 16,
     "txallo-hybrid:global-every=4", IngestMode::kOpenLoop,
     AllocatorMode::kBackground, true, 1000, 2, 50, 200.0, 225.0, 2},
    {"closed-churn-global", "churn", 50'000, 180, 1000, 16, "txallo-global",
     IngestMode::kClosedLoop, AllocatorMode::kBackground, false, 1'000'000, 0,
     8, 720.0, 0.0, 2},
};

// --quick: tiny shapes of the same workloads (smoke test).
constexpr uint64_t kQuickAccounts = 3000;
constexpr uint64_t kQuickBlocks = 60;
constexpr uint64_t kQuickTxsPerBlock = 100;
constexpr uint32_t kQuickEpoch = 10;

constexpr double kEta = 2.0;
constexpr uint32_t kThreads = 2;
// The floor on timed repetitions when a slow host stretches them past
// --seconds.
constexpr size_t kMinRepetitions = 3;
// Pooled samples a p90 needs to leave ten beyond it.
constexpr size_t kMinP90Samples = 100;

// ---------------------------------------------------------------------------
// Metric table: the single source of names, units and bounds. `listed`
// marks the metrics BENCHMARK.json lists (and the final JSON line carries).
// run.py --compare gives a verdict on end-to-end metrics only; the
// alloc_update_ms_* pair, whose spread no allowed bound holds, is kept as a
// layer metric so it is printed without one.
// ---------------------------------------------------------------------------

enum class Kind { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;
  Kind kind;
  bool listed;
};

constexpr MetricDef kMetrics[] = {
    {"committed_tx_per_s", "tx/s", true, 0.25, Kind::kEndToEnd, true},
    {"alloc_update_ms_p50", "ms", false, 0.0, Kind::kLayer, false},
    {"alloc_update_ms_p90", "ms", false, 0.0, Kind::kLayer, false},
    {"setup_s", "s", false, 0.25, Kind::kEndToEnd, true},
    {"peak_rss_mib", "MiB", false, 0.20, Kind::kEndToEnd, true},
    {"cross_shard_pct", "%", false, 0.10, Kind::kEndToEnd, true},
    {"committed_per_tick", "tx/tick", true, 0.25, Kind::kEndToEnd, true},
    {"ticks_elapsed", "ticks", false, 0.0, Kind::kEndToEnd, false},
    {"latency_p50_ticks", "ticks", false, 0.0, Kind::kEndToEnd, false},
    {"latency_p99_ticks", "ticks", false, 0.0, Kind::kEndToEnd, false},
    {"failed_pct", "%", false, 0.0, Kind::kEndToEnd, false},
    {"generator_lateness_ticks", "ticks", false, 0.0, Kind::kEndToEnd, false},

    {"workload.generate_s", "s", false, 0.0, Kind::kLayer, true},
    {"engine.submit_ns_per_tx", "ns", false, 0.0, Kind::kLayer, true},
    {"engine.tick_us_p50", "us", false, 0.0, Kind::kLayer, true},
    {"engine.tick_us_p99", "us", false, 0.0, Kind::kLayer, true},
    {"engine.tick_s", "s", false, 0.0, Kind::kLayer, true},
    {"engine.drain_s", "s", false, 0.0, Kind::kLayer, true},
    {"engine.snapshot_s", "s", false, 0.0, Kind::kLayer, true},
    {"engine.install_us_p50", "us", false, 0.0, Kind::kLayer, true},
    {"engine.worker_stall_s", "s", false, 0.0, Kind::kLayer, true},
    {"engine.max_queue_depth", "count", false, 0.0, Kind::kLayer, true},
    {"engine.parts_per_tx", "ratio", false, 0.0, Kind::kLayer, true},
    {"engine.self_s", "s", false, 0.0, Kind::kLayer, true},
    {"allocator.apply_ns_per_tx", "ns", false, 0.0, Kind::kLayer, true},
    {"allocator.update_ms_p50", "ms", false, 0.0, Kind::kLayer, true},
    {"allocator.update_ms_p90", "ms", false, 0.0, Kind::kLayer, true},
    {"allocator.begin_ms_p50", "ms", false, 0.0, Kind::kLayer, false},
    {"allocator.commit_ms_p50", "ms", false, 0.0, Kind::kLayer, false},
    {"allocator.wait_s", "s", false, 0.0, Kind::kLayer, true},
    {"allocator.overlap_ratio", "ratio", true, 0.0, Kind::kLayer, true},
    {"allocator.accounts_moved_per_epoch", "count", false, 0.0, Kind::kLayer,
     true},
    {"allocator.self_s", "s", false, 0.0, Kind::kLayer, true},
    {"mempool.submit_ns_per_tx", "ns", false, 0.0, Kind::kLayer, false},
    {"mempool.seal_us_p50", "us", false, 0.0, Kind::kLayer, false},
    {"mempool.seal_us_p99", "us", false, 0.0, Kind::kLayer, false},
    {"mempool.take_us_p50", "us", false, 0.0, Kind::kLayer, false},
    {"mempool.take_us_p99", "us", false, 0.0, Kind::kLayer, false},
    {"mempool.admitted_ratio", "ratio", true, 0.0, Kind::kLayer, false},
    {"mempool.peak_depth", "count", false, 0.0, Kind::kLayer, false},
    {"mempool.self_s", "s", false, 0.0, Kind::kLayer, false},
    {"state.aborted_ratio", "ratio", false, 0.0, Kind::kLayer, true},
    {"state.accounts_migrated", "count", false, 0.0, Kind::kLayer, true},
    {"driver.traced_wall_s", "s", false, 0.0, Kind::kLayer, true},
    {"driver.unattributed_s", "s", false, 0.0, Kind::kLayer, true},
    {"trace.overhead_pct", "%", false, 0.0, Kind::kLayer, true},
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct Summary {
  size_t samples = 0;
  double min = 0.0, q1 = 0.0, median = 0.0, q3 = 0.0, max = 0.0;
};

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  s.q1 = Quantile(values, 0.25);
  s.median = Quantile(values, 0.5);
  s.q3 = Quantile(values, 0.75);
  return s;
}

struct MetricValue {
  double value = 0.0;
  /// Distribution the value was taken from (repetitions or pooled samples).
  std::optional<Summary> summary;
};

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Everything of a run that is a function of the logical clock; identical
/// across repetitions, thread counts and the traced driver.
struct LogicalOutput {
  std::vector<engine::StepMetrics> steps;
  common::Histogram e2e_latency;
  common::Histogram commit_latency;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t cross_shard_submitted = 0;
  uint64_t aborted = 0;
  uint64_t blocks_elapsed = 0;
  uint64_t prepares = 0;
  uint64_t accounts_migrated = 0;
  uint64_t epochs = 0;
  uint64_t accounts_moved = 0;
  mempool::AdmissionStats admission;
  std::string state_root;

  bool operator==(const LogicalOutput&) const = default;
};

LogicalOutput Logical(const engine::PipelineResult& result,
                      engine::ParallelEngine* engine) {
  LogicalOutput out;
  out.steps = result.steps;
  for (engine::StepMetrics& step : out.steps) {
    step.alloc_seconds = 0.0;
    step.alloc_wait_seconds = 0.0;
  }
  out.e2e_latency = result.e2e_latency_ticks;
  out.commit_latency = result.report.commit_latency_blocks;
  out.submitted = result.report.sim.submitted;
  out.committed = result.report.sim.committed;
  out.cross_shard_submitted = result.report.sim.cross_shard_submitted;
  out.aborted = result.report.aborted;
  out.blocks_elapsed = result.report.sim.blocks_elapsed;
  out.prepares = result.report.prepares_received;
  out.accounts_migrated = result.report.accounts_migrated;
  out.epochs = result.epochs;
  out.accounts_moved = result.accounts_moved;
  out.admission = result.admission;
  if (engine->state() != nullptr) {
    out.state_root = DigestToHex(engine->state()->GlobalRoot());
  }
  return out;
}

uint64_t AdmissionDrops(const mempool::AdmissionStats& stats) {
  return stats.dropped_capacity + stats.dropped_account_pending +
         stats.dropped_account_rate + stats.dropped_backpressure;
}

/// Named pass/fail counters; the first failure's detail is kept.
class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    Entry& entry = entries_[name];
    ++entry.runs;
    if (!ok) {
      ++entry.failures;
      if (entry.detail.empty()) entry.detail = detail;
      std::fprintf(stderr, "check %s FAILED: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  uint64_t failures() const {
    uint64_t n = 0;
    for (const auto& [name, entry] : entries_) n += entry.failures;
    return n;
  }
  bool all_ok() const { return failures() == 0; }
  struct Entry {
    uint64_t runs = 0;
    uint64_t failures = 0;
    std::string detail;
  };
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

/// The per-run invariants.
void CheckInvariants(const engine::PipelineResult& result, bool open_loop,
                     uint64_t ledger_txs, Checks* checks) {
  const engine::EngineReport& report = result.report;
  checks->Expect(
      "submitted_eq_committed_plus_aborted",
      report.sim.submitted == report.sim.committed + report.aborted,
      "submitted " + std::to_string(report.sim.submitted) + " != committed " +
          std::to_string(report.sim.committed) + " + aborted " +
          std::to_string(report.aborted));
  uint64_t step_committed = 0;
  uint64_t step_offered = 0;
  for (const engine::StepMetrics& step : result.steps) {
    step_committed += step.committed;
    step_offered += step.offered;
  }
  checks->Expect("step_committed_sum_eq_total",
                       step_committed == report.sim.committed,
                       "sum(step.committed) " +
                           std::to_string(step_committed) + " != " +
                           std::to_string(report.sim.committed));
  if (open_loop) {
    const mempool::AdmissionStats& a = result.admission;
    const uint64_t dropped = AdmissionDrops(a);
    checks->Expect(
        "offered_eq_admitted_plus_dropped",
        step_offered == ledger_txs && a.submitted == ledger_txs &&
            step_offered == a.admitted + dropped,
        "offered " + std::to_string(step_offered) + " (ledger " +
            std::to_string(ledger_txs) + ") != admitted " +
            std::to_string(a.admitted) + " + dropped " +
            std::to_string(dropped));
    checks->Expect("admitted_eq_submitted_plus_expired",
                         a.admitted == report.sim.submitted + a.expired,
                         "admitted " + std::to_string(a.admitted) +
                             " != submitted " +
                             std::to_string(report.sim.submitted) +
                             " + expired " + std::to_string(a.expired));
  }
}

// ---------------------------------------------------------------------------
// Repetitions.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15.0;
  bool trace = false;
  bool quick = false;
  std::string json_out;
  std::string trace_events;
};

/// The workload as this process runs it: the pinned shape, or with --quick
/// its tiny version.
Workload ResolveShape(const Workload& pinned, const Options& options) {
  Workload w = pinned;
  if (options.quick) {
    const double scale = static_cast<double>(kQuickTxsPerBlock) /
                         static_cast<double>(w.txs_per_block);
    w.accounts = kQuickAccounts;
    w.blocks = kQuickBlocks;
    w.txs_per_block = kQuickTxsPerBlock;
    w.epoch = kQuickEpoch;
    w.lambda *= scale;
    w.offered_load *= scale;
  }
  return w;
}

/// Ledger, allocator and engine of one repetition (the set-up it times).
struct Prepared {
  std::unique_ptr<workload::Scenario> scenario;
  chain::Ledger ledger;
  std::unique_ptr<allocator::Allocator> allocator;
  std::unique_ptr<engine::ParallelEngine> engine;
};

/// Runs `f` inside a span when tracing.
template <typename F>
auto MaybeSpan(perf::SpanRecorder* spans, const char* name, F&& f) {
  std::optional<perf::ScopedSpan> span;
  if (spans != nullptr) span.emplace(spans, name);
  return f();
}

Result<Prepared> Prepare(const Workload& w, uint64_t seed,
                         perf::SpanRecorder* spans) {
  Prepared p;
  workload::ScenarioShape scenario_shape;
  scenario_shape.num_blocks = w.blocks;
  scenario_shape.txs_per_block = w.txs_per_block;
  scenario_shape.num_accounts = w.accounts;
  scenario_shape.num_communities =
      static_cast<uint32_t>(std::max<uint64_t>(32, w.accounts / 160));
  scenario_shape.initial_balance = w.balance;
  scenario_shape.seed = seed;
  Status generated = MaybeSpan(spans, "workload.generate", [&]() -> Status {
    Result<std::unique_ptr<workload::Scenario>> made =
        workload::MakeScenarioFromSpec(w.scenario, scenario_shape);
    if (!made.ok()) return made.status();
    p.scenario = std::move(made.value());
    p.ledger = p.scenario->GenerateLedger(p.scenario->num_blocks());
    return Status::OK();
  });
  TXALLO_RETURN_NOT_OK(generated);

  Status built = MaybeSpan(spans, "allocator.construct", [&]() -> Status {
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        p.ledger.num_transactions(), w.shards, kEta);
    options.registry = &p.scenario->registry();
    options.seed = seed;
    Result<std::unique_ptr<allocator::Allocator>> made =
        allocator::MakeAllocatorFromSpec(w.allocator, options);
    if (!made.ok()) return made.status();
    if ((*made)->AsOnline() == nullptr) {
      return Status::InvalidArgument(std::string("allocator '") + w.allocator +
                                     "' is one-shot only");
    }
    p.allocator = std::move(made.value());
    return Status::OK();
  });
  TXALLO_RETURN_NOT_OK(built);

  MaybeSpan(spans, "engine.construct", [&] {
    engine::EngineConfig config;
    config.num_shards = w.shards;
    config.work.eta = kEta;
    config.work.capacity_per_block = w.lambda;
    config.num_threads = kThreads;
    config.hash_route_unassigned = true;
    config.spin_iterations_per_unit = 0;
    config.state.enabled = w.state;
    config.state.initial_balance = p.scenario->initial_balance();
    p.engine = std::make_unique<engine::ParallelEngine>(config, nullptr);
    return 0;
  });
  return p;
}

engine::PipelineConfig MakePipelineConfig(const Workload& w) {
  engine::PipelineConfig config;
  config.blocks_per_epoch = w.epoch;
  config.allocator_mode = w.mode;
  config.ingest_mode = w.ingest;
  config.ingest_producers = w.producers;
  config.open_loop.offered_load = w.offered_load;
  config.workload_spec = w.scenario;
  return config;
}

struct Repetition {
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t committed = 0;
  /// Wall time of every epoch allocation update (StepMetrics.alloc_seconds).
  std::vector<double> alloc_s;
  LogicalOutput logical;
  uint64_t ledger_txs = 0;
};

Result<Repetition> RunRepetition(const Workload& w, uint64_t seed,
                                 Checks* checks) {
  Repetition rep;
  Stopwatch setup_watch;
  Result<Prepared> prepared = Prepare(w, seed, nullptr);
  if (!prepared.ok()) return prepared.status();
  rep.setup_s = setup_watch.ElapsedSeconds();
  Prepared& p = prepared.value();
  rep.ledger_txs = p.ledger.num_transactions();

  const engine::PipelineConfig config = MakePipelineConfig(w);
  Stopwatch run_watch;
  Result<engine::PipelineResult> result = engine::RunReallocatedStream(
      p.ledger, p.allocator->AsOnline(), p.engine.get(), config);
  rep.run_s = run_watch.ElapsedSeconds();
  if (!result.ok()) return result.status();

  rep.committed = result->report.sim.committed;
  for (const engine::StepMetrics& step : result->steps) {
    if (step.alloc_seconds > 0.0) rep.alloc_s.push_back(step.alloc_seconds);
  }
  rep.logical = Logical(*result, p.engine.get());
  CheckInvariants(*result, w.ingest == IngestMode::kOpenLoop,
                  rep.ledger_txs, checks);
  return rep;
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

using Metrics = std::map<std::string, MetricValue>;

/// `setups` holds every timed set-up: the timed repetitions' and the
/// set-up-only ones'.
void EndToEndMetrics(const Workload& w, const std::vector<Repetition>& reps,
                     const std::vector<double>& setups,
                     const LogicalOutput& logical, double peak_rss,
                     Metrics* metrics) {
  std::vector<double> tx_per_s;
  std::vector<double> alloc_ms;
  for (const Repetition& rep : reps) {
    tx_per_s.push_back(static_cast<double>(rep.committed) / rep.run_s);
    for (double s : rep.alloc_s) alloc_ms.push_back(s * 1e3);
  }
  const Summary tps = Summarize(tx_per_s);
  (*metrics)["committed_tx_per_s"] = {tps.median, tps};
  const Summary setup_summary = Summarize(setups);
  (*metrics)["setup_s"] = {setup_summary.median, setup_summary};
  const Summary alloc_summary = Summarize(alloc_ms);
  (*metrics)["alloc_update_ms_p50"] = {alloc_summary.median, alloc_summary};
  if (alloc_ms.size() >= kMinP90Samples) {
    (*metrics)["alloc_update_ms_p90"] = {Quantile(alloc_ms, 0.9),
                                         alloc_summary};
  }
  (*metrics)["peak_rss_mib"] = {peak_rss, std::nullopt};

  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const bool open = w.ingest == IngestMode::kOpenLoop;
  (*metrics)["cross_shard_pct"] = {
      100.0 * ratio(logical.cross_shard_submitted, logical.submitted),
      std::nullopt};
  (*metrics)["committed_per_tick"] = {
      ratio(logical.committed, logical.blocks_elapsed), std::nullopt};
  (*metrics)["ticks_elapsed"] = {static_cast<double>(logical.blocks_elapsed),
                                 std::nullopt};
  // Closed loop: a transaction is submitted at its block's tick, so the
  // engine's commit-latency histogram is commit tick - submit tick. Open
  // loop: from the tick the generator released it (its due tick).
  const common::Histogram& latency =
      open ? logical.e2e_latency : logical.commit_latency;
  (*metrics)["latency_p50_ticks"] = {
      static_cast<double>(latency.Percentile(50.0)), std::nullopt};
  (*metrics)["latency_p99_ticks"] = {
      static_cast<double>(latency.Percentile(99.0)), std::nullopt};
  const uint64_t offered = open ? logical.admission.submitted
                                : reps.front().ledger_txs;
  (*metrics)["failed_pct"] = {
      100.0 * ratio(logical.aborted + AdmissionDrops(logical.admission) +
                        logical.admission.expired,
                    offered),
      std::nullopt};
  if (open) {
    // Arrivals are released on the logical clock at their due tick, so the
    // generator cannot run late.
    (*metrics)["generator_lateness_ticks"] = {0.0, std::nullopt};
  }
}

struct TracedRepetition {
  perf::SpanRecorder spans;
  engine::PipelineResult result;
  LogicalOutput logical;
  double pipeline_s = 0.0;
};

Result<std::unique_ptr<TracedRepetition>> RunTraced(const Workload& w,
                                                    uint64_t seed) {
  auto traced = std::make_unique<TracedRepetition>();
  perf::SpanRecorder* spans = &traced->spans;
  // Declared before the root span so teardown (engine joins, ledger free)
  // falls outside it, as it falls outside the untraced timings.
  Result<Prepared> prepared = Status::Internal("not prepared");
  Result<engine::PipelineResult> result = Status::Internal("not run");
  {
    perf::ScopedSpan root(spans, "driver.repetition");
    prepared = Prepare(w, seed, spans);
    if (!prepared.ok()) return prepared.status();
    perf::ScopedSpan pipeline(spans, "driver.pipeline");
    Stopwatch watch;
    result = perf::RunTracedStream(
        prepared->ledger, prepared->allocator->AsOnline(),
        prepared->engine.get(), MakePipelineConfig(w), spans);
    traced->pipeline_s = watch.ElapsedSeconds();
  }
  if (!result.ok()) return result.status();
  traced->logical = Logical(*result, prepared->engine.get());
  traced->result = std::move(result.value());
  return traced;
}

void LayerMetrics(const Workload& w, const TracedRepetition& traced,
                  double untraced_tx_per_s, Metrics* metrics) {
  const std::vector<perf::Span>& spans = traced.spans.spans();
  const std::vector<int64_t> self = traced.spans.SelfTimes();
  std::map<std::string, std::vector<double>> durations;  // seconds
  std::map<std::string, double> layer_self;              // seconds
  double root_s = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const perf::Span& span = spans[i];
    const double dur = static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    durations[span.name].push_back(dur);
    if (span.parent < 0) root_s = dur;
    if (span.lane != perf::kDriverLane) continue;
    const std::string name = span.name;
    layer_self[name.substr(0, name.find('.'))] +=
        static_cast<double>(self[i]) / 1e9;
  }
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (double d : durations[name]) sum += d;
    return sum;
  };
  const auto q = [&](const char* name, double quantile, double scale) {
    return Quantile(durations[name], quantile) * scale;
  };
  const auto set = [&](const char* name, double value) {
    (*metrics)[name] = {value, std::nullopt};
  };
  const engine::PipelineResult& r = traced.result;
  const engine::EngineReport& report = r.report;
  const auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const bool open = w.ingest == IngestMode::kOpenLoop;
  const bool background = w.mode == AllocatorMode::kBackground;

  set("workload.generate_s", total("workload.generate"));
  set("engine.submit_ns_per_tx", per(total("engine.submit") * 1e9,
                                     report.sim.submitted));
  set("engine.tick_us_p50", q("engine.tick", 0.5, 1e6));
  set("engine.tick_us_p99", q("engine.tick", 0.99, 1e6));
  set("engine.tick_s", total("engine.tick"));
  set("engine.drain_s", total("engine.drain"));
  set("engine.snapshot_s", total("engine.snapshot"));
  set("engine.install_us_p50", q("engine.install", 0.5, 1e6));
  set("engine.worker_stall_s", report.worker_stall_seconds);
  uint64_t max_depth = 0;
  for (uint64_t depth : report.max_queue_depth) {
    max_depth = std::max(max_depth, depth);
  }
  set("engine.max_queue_depth", static_cast<double>(max_depth));
  set("engine.parts_per_tx",
      per(static_cast<double>(report.prepares_received), report.sim.committed));
  // Transactions the allocator absorbed: the ledger (closed loop) or what
  // was dispatched (open loop) — both equal the engine's submitted count.
  set("allocator.apply_ns_per_tx",
      per(total("allocator.apply") * 1e9, report.sim.submitted));
  const char* update = background ? "allocator.run" : "allocator.rebalance";
  set("allocator.update_ms_p50", q(update, 0.5, 1e3));
  set("allocator.update_ms_p90", q(update, 0.9, 1e3));
  set("allocator.wait_s",
      total(background ? "allocator.wait" : "allocator.rebalance"));
  set("allocator.overlap_ratio", r.alloc_overlap_ratio);
  set("allocator.accounts_moved_per_epoch",
      per(static_cast<double>(r.accounts_moved),
          durations["allocator.compare"].size()));
  if (background) {
    set("allocator.begin_ms_p50", q("allocator.begin", 0.5, 1e3));
    set("allocator.commit_ms_p50", q("allocator.commit", 0.5, 1e3));
  }
  if (open) {
    set("mempool.submit_ns_per_tx",
        per(total("mempool.submit") * 1e9, r.admission.submitted));
    set("mempool.seal_us_p50", q("mempool.seal", 0.5, 1e6));
    set("mempool.seal_us_p99", q("mempool.seal", 0.99, 1e6));
    set("mempool.take_us_p50", q("mempool.take", 0.5, 1e6));
    set("mempool.take_us_p99", q("mempool.take", 0.99, 1e6));
    set("mempool.admitted_ratio", per(static_cast<double>(r.admission.admitted),
                                      r.admission.submitted));
    set("mempool.peak_depth", static_cast<double>(r.admission.peak_depth));
    set("mempool.self_s", layer_self["mempool"]);
  }
  set("state.aborted_ratio",
      per(static_cast<double>(report.aborted), report.sim.submitted));
  set("state.accounts_migrated", static_cast<double>(report.accounts_migrated));

  set("engine.self_s", layer_self["engine"]);
  set("allocator.self_s", layer_self["allocator"]);
  // Every driver-lane span nests under the root, so the layers' self times
  // plus the driver's own (unattributed) time equal the root's duration.
  set("driver.traced_wall_s", root_s);
  set("driver.unattributed_s", layer_self["driver"]);
  const double traced_tx_per_s =
      static_cast<double>(report.sim.committed) / traced.pipeline_s;
  set("trace.overhead_pct",
      100.0 * (untraced_tx_per_s - traced_tx_per_s) / untraced_tx_per_s);
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string GitHead() {
  // The ceiling keeps git from searching above the working directory, so a
  // checkout without .git reads "unknown" instead of an enclosing repo's
  // commit.
  FILE* pipe = popen(
      "GIT_CEILING_DIRECTORIES=\"$(dirname \"$PWD\")\" git rev-parse HEAD "
      "2>/dev/null",
      "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string head;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) head = buf;
  pclose(pipe);
  while (!head.empty() && (head.back() == '\n' || head.back() == '\r')) {
    head.pop_back();
  }
  return head.empty() ? "unknown" : head;
}

std::string MetricJson(const MetricDef& def, const MetricValue& value) {
  std::ostringstream out;
  out << "{\"value\": " << Num(value.value) << ", \"unit\": \"" << def.unit
      << "\", \"better\": \"" << (def.higher_is_better ? "higher" : "lower")
      << "\", \"bound\": " << Num(def.bound) << ", \"kind\": \""
      << (def.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer") << "\"";
  if (value.summary) {
    const Summary& s = *value.summary;
    out << ", \"samples\": " << s.samples << ", \"min\": " << Num(s.min)
        << ", \"q1\": " << Num(s.q1) << ", \"median\": " << Num(s.median)
        << ", \"q3\": " << Num(s.q3) << ", \"max\": " << Num(s.max);
  }
  out << "}";
  return out.str();
}

Status WriteJsonOut(const std::string& path, const Options& options,
                    const Workload& w, const Metrics& metrics,
                    const std::vector<Repetition>& reps, const Checks& checks,
                    uint64_t attempted, uint64_t failed) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << "{\n  \"bench\": \"perf_ledger\",\n";
  out << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << JsonEscape(__VERSION__)
      << "\", \"build_type\": \"" << PERF_BUILD_TYPE << "\", \"commit\": \""
      << JsonEscape(GitHead()) << "\", \"seed\": " << options.seed << "},\n";
  out << "  \"workload\": \"" << w.name << "\",\n";
  out << "  \"shape\": {\"scenario\": \"" << JsonEscape(w.scenario)
      << "\", \"accounts\": " << w.accounts << ", \"blocks\": " << w.blocks
      << ", \"txs_per_block\": " << w.txs_per_block
      << ", \"shards\": " << w.shards << ", \"allocator\": \"" << w.allocator
      << "\", \"ingest\": \"" << engine::IngestModeName(w.ingest)
      << "\", \"allocator_mode\": \"" << engine::AllocatorModeName(w.mode)
      << "\", \"state\": " << (w.state ? "true" : "false")
      << ", \"producers\": " << w.producers << ", \"epoch\": " << w.epoch
      << ", \"lambda\": " << Num(w.lambda)
      << ", \"offered_load\": " << Num(w.offered_load)
      << ", \"threads\": " << kThreads
      << ", \"extra_setups\": " << w.extra_setups
      << ", \"quick\": " << (options.quick ? "true" : "false") << "},\n";
  out << "  \"seconds\": " << Num(options.seconds) << ",\n";
  out << "  \"correct\": " << (checks.all_ok() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n";
  out << "  \"checks\": {";
  bool first = true;
  for (const auto& [name, entry] : checks.entries()) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": {\"runs\": " << entry.runs
        << ", \"failures\": " << entry.failures << ", \"detail\": \""
        << JsonEscape(entry.detail) << "\"}";
    first = false;
  }
  out << "\n  },\n  \"metrics\": {";
  first = true;
  for (const MetricDef& def : kMetrics) {
    auto it = metrics.find(def.name);
    if (it == metrics.end()) continue;
    out << (first ? "\n" : ",\n") << "    \"" << def.name
        << "\": " << MetricJson(def, it->second);
    first = false;
  }
  out << "\n  },\n  \"repetitions\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    const Repetition& rep = reps[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"setup_s\": " << Num(rep.setup_s)
        << ", \"run_s\": " << Num(rep.run_s)
        << ", \"committed_tx_per_s\": "
        << Num(static_cast<double>(rep.committed) / rep.run_s)
        << ", \"alloc_updates\": " << rep.alloc_s.size() << "}";
  }
  out << "\n  ]\n}\n";
  out.close();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Strict parser: `--flag value` or `--flag=value`; unknown flags and bad
/// values are errors.
std::optional<std::string> ParseFlags(int argc, char** argv,
                                      Options* options, bool* list) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return "unexpected argument '" + arg + "'";
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    if (name == "quick" || name == "list") {
      if (value) return "--" + name + " takes no value";
      (name == "quick" ? options->quick : *list) = true;
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) return "--" + name + " needs a value";
      value = argv[++i];
    }
    uint64_t u = 0;
    double d = 0.0;
    if (name == "workload") {
      options->workload = *value;
    } else if (name == "seed" && ParseUint(*value, &u)) {
      options->seed = u;
    } else if (name == "seconds" && ParseDouble(*value, &d) && d >= 0.0) {
      options->seconds = d;
    } else if (name == "trace" && (*value == "0" || *value == "1")) {
      options->trace = *value == "1";
    } else if (name == "json-out") {
      options->json_out = *value;
    } else if (name == "trace-events") {
      options->trace_events = *value;
    } else {
      return "unknown flag or bad value: " + arg;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool list = false;
  if (std::optional<std::string> error =
          ParseFlags(argc, argv, &options, &list)) {
    std::fprintf(stderr, "perf_ledger: %s\n", error->c_str());
    return 2;
  }
  if (list) {
    for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  const Workload* pinned = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) pinned = &w;
  }
  if (pinned == nullptr) {
    std::fprintf(stderr, "perf_ledger: unknown --workload '%s' (see --list)\n",
                 options.workload.c_str());
    return 2;
  }
  if (!options.trace_events.empty() && !options.trace) {
    std::fprintf(stderr, "perf_ledger: --trace-events needs --trace 1\n");
    return 2;
  }
  const Workload w = ResolveShape(*pinned, options);
  const bool open = w.ingest == IngestMode::kOpenLoop;

  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<LogicalOutput> reference;
  // Sampled after the first repetition: later repetitions only add
  // allocator-arena fragmentation that depends on thread scheduling.
  std::optional<double> peak_rss;
  // One repetition: run it, check its invariants and that its logical
  // output equals the first repetition's.
  const auto repeat = [&]() -> std::optional<Repetition> {
    ++attempted;
    const uint64_t failures_before = checks.failures();
    Result<Repetition> rep = RunRepetition(w, options.seed, &checks);
    if (!rep.ok()) {
      checks.Expect("pipeline_ok", false, rep.status().ToString());
      ++failed;
      return std::nullopt;
    }
    if (!reference) {
      reference = rep->logical;
      peak_rss = PeakRssMib();
    }
    checks.Expect("repetitions_logically_identical", rep->logical == *reference,
                  "repetition " + std::to_string(attempted) +
                      " differs from the first (steps, latency histograms, "
                      "counters or state root)");
    if (checks.failures() > failures_before) ++failed;
    return std::move(rep.value());
  };

  std::vector<Repetition> reps;
  std::vector<double> setups;
  // Wall time of the set-up-only repetitions, which the --seconds window
  // leaves out.
  double setup_only_s = 0.0;
  const auto setup_only = [&]() -> bool {
    ++attempted;
    Stopwatch spent;
    {
      Stopwatch watch;
      Result<Prepared> prepared = Prepare(w, options.seed, nullptr);
      if (!prepared.ok()) {
        checks.Expect("setup_ok", false, prepared.status().ToString());
        ++failed;
        return false;
      }
      setups.push_back(watch.ElapsedSeconds());
    }
    setup_only_s += spent.ElapsedSeconds();
    return true;
  };

  bool ok = true;
  if (!options.quick) {
    std::fprintf(stderr, "%s: warm-up\n", w.name);
    ok = repeat().has_value();
  }
  const size_t min_reps = options.quick ? 1 : kMinRepetitions;
  Stopwatch window;
  while (ok && (reps.size() < min_reps ||
                (!options.quick &&
                 window.ElapsedSeconds() - setup_only_s < options.seconds))) {
    for (uint32_t i = 0; ok && i < w.extra_setups; ++i) ok = setup_only();
    std::optional<Repetition> rep;
    if (ok) rep = repeat();
    if (!rep) break;
    std::fprintf(stderr, "%s: repetition %zu: setup %.3f s, run %.3f s\n",
                 w.name, reps.size() + 1, rep->setup_s, rep->run_s);
    setups.push_back(rep->setup_s);
    reps.push_back(std::move(*rep));
  }
  Metrics metrics;
  if (!reps.empty()) {
    EndToEndMetrics(w, reps, setups, *reference, *peak_rss, &metrics);
  }

  if (options.trace && !reps.empty()) {
    ++attempted;
    const uint64_t failures_before = checks.failures();
    Result<std::unique_ptr<TracedRepetition>> traced =
        RunTraced(w, options.seed);
    if (!traced.ok()) {
      checks.Expect("traced_pipeline_ok", false, traced.status().ToString());
    } else {
      const TracedRepetition& t = **traced;
      checks.Expect("traced_equals_untraced", t.logical == *reference,
                    "the traced driver's logical output differs from "
                    "RunReallocatedStream's");
      CheckInvariants(t.result, open, reps.front().ledger_txs, &checks);
      LayerMetrics(w, t, metrics["committed_tx_per_s"].value, &metrics);
      if (!options.trace_events.empty()) {
        Status written = t.spans.WriteChromeTrace(options.trace_events);
        checks.Expect("trace_events_written", written.ok(),
                      written.ToString());
      }
    }
    if (checks.failures() > failures_before) ++failed;
  }

  const bool correct = checks.all_ok() && !reps.empty();
  if (!correct && failed == 0) failed = 1;
  for (const MetricDef& def : kMetrics) {
    auto it = metrics.find(def.name);
    if (it == metrics.end()) continue;
    std::printf("%s %s %s %s\n", w.name, def.name,
                Num(it->second.value).c_str(), def.unit);
  }
  if (!options.json_out.empty()) {
    Status written = WriteJsonOut(options.json_out, options, w, metrics,
                                  reps, checks, attempted, failed);
    if (!written.ok()) {
      std::fprintf(stderr, "perf_ledger: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  const Kind wanted = options.trace ? Kind::kLayer : Kind::kEndToEnd;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    if (def.kind != wanted || !def.listed) continue;
    auto it = metrics.find(def.name);
    const double value = it == metrics.end() ? 0.0 : it->second.value;
    line += std::string(first ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + Num(value) + ", \"unit\": \"" + def.unit +
            "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
