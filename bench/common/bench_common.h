// Shared machinery for the figure-reproduction benchmarks: workload fixture
// construction, allocation-method dispatch through the allocator registry
// (allocator/registry.h), a disk cache so the per-figure binaries share
// sweep results, and aligned table printing.
//
// Every binary honours:
//   TXALLO_SCALE=small|medium|large   (or --scale=...)
//   --txs/--accounts/--seed/--max-shards/--shard-step/--eta-list
//   --methods=a,b,c     allocator specs the sweep compares (default: the
//                       paper's four)
//   --allocator=SPEC    single-method override (also TXALLO_ALLOCATOR)
//   --no-cache          recompute everything
//   --csv-dir=DIR       where to drop machine-readable series (default
//                       ./bench_out)
//   --cache-dir=DIR     where the sweep cache lives (default
//                       <csv-dir>/cache)
//   --record=PATH       engine benches: record the run's deterministic
//                       trace (engine/replay.h) to PATH
//   --replay=PATH       engine benches: re-execute the trace at PATH and
//                       verify bit-identity instead of running live
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "txallo/alloc/metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/allocator/registry.h"
#include "txallo/chain/account.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/flags.h"
#include "txallo/engine/engine.h"
#include "txallo/graph/graph.h"
#include "txallo/workload/ethereum_like.h"
#include "txallo/workload/scenario_registry.h"

namespace txallo::bench {

// Re-export the flag/scale helpers so bench binaries can use one namespace.
using txallo::BenchScale;
using txallo::Flags;
using txallo::ResolveAllocatorSpec;
using txallo::ResolveScenarioSpec;

/// Flags::ParseOrExit() for a bench that resolves its scale with
/// ResolveBenchScaleOrExit(): accepts the names that reads plus `names`,
/// which lists every other name the bench reads, itself or through the
/// helpers below.
Flags ParseBenchFlags(int argc, char** argv,
                      std::initializer_list<std::string_view> names);

/// ResolveBenchScale(flags), or, for an unknown preset name, its status on
/// stderr and exit(1).
BenchScale ResolveBenchScaleOrExit(const Flags& flags);

/// The paper's four-method comparison (§VI), as allocator-registry specs.
std::vector<std::string> DefaultMethodSpecs();

/// Splits `list` on `separator`, dropping empty clauses.
std::vector<std::string> SplitList(const std::string& list,
                                   char separator = ',');

/// Method list of the sweep figures: --methods=a,b,c (allocator specs,
/// ';'-separated when any spec's option list itself contains commas) beats
/// a single-method --allocator/TXALLO_ALLOCATOR beats `fallback` (the
/// paper's four when omitted).
std::vector<std::string> ResolveMethodSpecs(
    const Flags& flags, const std::vector<std::string>& fallback = {});

/// `--allocator=help` / `--methods=help` (the latter in benches that take
/// `--methods`): prints the registry's generated usage table
/// (allocator::AllocatorUsageText). Returns true when help was printed —
/// the caller should exit 0.
bool HandleAllocatorHelp(const Flags& flags);

/// `--scenario=help` / `--scenarios=help` (the latter in benches that take
/// `--scenarios`): prints the scenario registry's generated usage table
/// (workload::ScenarioUsageText). Returns true when help was printed — the
/// caller should exit 0.
bool HandleScenarioHelp(const Flags& flags);

/// Instantiates `spec` through the scenario registry with `shape` as the
/// programmatic default. On an invalid spec, prints the status and exits
/// 1 (bench binaries treat a typo'd scenario the way they treat a typo'd
/// allocator: fatal, never silently the default workload).
std::unique_ptr<workload::Scenario> MakeScenarioOrDie(
    const std::string& spec, const workload::ScenarioShape& shape);

/// Table label: the paper's legend name for the classic methods
/// ("Our Method", "Random", "Metis", "Shard Scheduler"); any other spec
/// displays as itself.
std::string MethodLabel(const std::string& spec);

/// One evaluated datapoint of the sweep grid.
struct MethodResult {
  alloc::EvaluationReport report;
  /// Wall-clock seconds to derive the mapping (Fig. 8's metric).
  double allocation_seconds = 0.0;
};

/// Workload fixture shared by every figure: the synthetic Ethereum-like
/// ledger, its transaction graph, and the deterministic node order.
class Fixture {
 public:
  /// Builds (deterministically) from the resolved scale.
  Fixture(const BenchScale& scale, uint64_t seed);

  const chain::Ledger& ledger() const { return ledger_; }
  const graph::TransactionGraph& graph() const { return graph_; }
  const chain::AccountRegistry& registry() const { return *registry_; }
  const std::vector<graph::NodeId>& node_order() const { return node_order_; }
  const workload::EthereumLikeConfig& config() const { return config_; }
  uint64_t num_transactions() const { return ledger_.num_transactions(); }

  /// Paper setting: λ = |T|/k, ε = 1e-5 |T|.
  alloc::AllocationParams ParamsFor(uint32_t k, double eta) const {
    return alloc::AllocationParams::ForExperiment(num_transactions(), k, eta);
  }

  /// Creates `spec`'s allocator bound to this fixture at (k, η): the
  /// registry, seed and experiment params flow into AllocatorOptions.
  /// On an invalid spec, prints the status and exits 1 (bench binaries
  /// treat a typo'd method name as fatal).
  std::unique_ptr<allocator::Allocator> MakeAllocator(const std::string& spec,
                                                      uint32_t k,
                                                      double eta) const;

  /// The one-shot AllocationContext over this fixture's workload.
  allocator::AllocationContext ContextFor(uint32_t k, double eta) const;

  /// Runs one method at (k, η), measuring allocation wall-clock time and
  /// evaluating under the method's own execution semantics (so the broker
  /// decorator prices brokered transactions honestly).
  MethodResult RunMethod(const std::string& spec, uint32_t k,
                         double eta) const;

 private:
  workload::EthereumLikeConfig config_;
  std::unique_ptr<workload::EthereumLikeGenerator> generator_;
  const chain::AccountRegistry* registry_;
  chain::Ledger ledger_;
  graph::TransactionGraph graph_;
  std::vector<graph::NodeId> node_order_;
  uint64_t seed_ = 0;
};

/// Disk-backed memoization of MethodResult keyed by (method spec, k, eta),
/// fingerprinted by (txs, accounts, seed) so scale changes invalidate it.
/// Lives under `cache_dir` (the --cache-dir flag; default <csv-dir>/cache)
/// so bench runs from read-only or parallel working directories don't
/// collide in a hardcoded ./txallo_bench_cache.
class SweepCache {
 public:
  SweepCache(const Fixture* fixture, const BenchScale& scale, uint64_t seed,
             bool enabled, std::string cache_dir);

  /// Cached or computed result.
  MethodResult Get(const std::string& spec, uint32_t k, double eta);

  /// Flushes newly computed entries to disk.
  ~SweepCache();

 private:
  struct Key {
    std::string spec;
    uint32_t k;
    double eta;
    bool operator<(const Key& other) const {
      if (spec != other.spec) return spec < other.spec;
      if (k != other.k) return k < other.k;
      return eta < other.eta;
    }
  };
  // The cached scalar projection of an EvaluationReport (per-shard vectors
  // are not cached; figures needing them recompute directly).
  struct Row {
    double gamma, rho_norm, throughput_norm, avg_latency, worst_latency,
        seconds, mean_mu;
    uint64_t cross_txs;
  };
  void Load();

  const Fixture* fixture_;
  std::string cache_dir_;
  std::string path_;
  bool enabled_;
  bool dirty_ = false;
  std::map<Key, Row> rows_;
};

/// The sweep-cache directory: --cache-dir, defaulting to <csv-dir>/cache.
std::string ResolveCacheDir(const Flags& flags);

/// --record=PATH / --replay=PATH: deterministic trace record/replay for
/// the engine-backed benches (see engine/replay.h). Empty paths mean off;
/// both set at once is rejected by the benches.
struct TraceFlags {
  std::string record_path;
  std::string replay_path;
};
TraceFlags ResolveTraceFlags(const Flags& flags);

/// Offered load (transactions per tick) for the open-loop benches:
/// --offered-load beats the TXALLO_OFFERED_LOAD environment variable beats
/// `fallback`. Set-but-malformed values (non-numeric tail, non-positive,
/// NaN/inf) are InvalidArgument, never silently the fallback.
Result<double> ResolveOfferedLoad(const Flags& flags, double fallback);

/// mkdir -p: creates `path` and any missing parents (best-effort; callers
/// surface failures through the file writes that follow).
void EnsureDirs(const std::string& path);

/// Standard experiment grid (the paper's panels): η ∈ {2,4,6,8,10} and
/// k from 2 to max_shards. Overridable via --eta-list="2,6,10".
struct SweepGrid {
  std::vector<double> etas;
  std::vector<uint32_t> shard_counts;
};
SweepGrid ResolveGrid(const Flags& flags, const BenchScale& scale);

/// Aligned table printing + CSV mirror.
class SeriesTable {
 public:
  SeriesTable(std::string title, std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  /// Prints to stdout.
  void Print() const;
  /// Also writes <csv_dir>/<filename> (creates the directory).
  void WriteCsv(const std::string& csv_dir,
                const std::string& filename) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string Fmt(double value, int precision = 3);

/// Engine configuration for benches/examples: k shards under the paper's
/// cost model, parallelism pinned by --threads / TXALLO_THREADS (0 = the
/// engine's hardware default). `num_threads` overrides the scale's value
/// when >= 0 (thread-sweep benches pass each sweep point here).
engine::EngineConfig MakeEngineConfig(const BenchScale& scale, uint32_t k,
                                      double eta, double capacity_per_block,
                                      int num_threads = -1);

/// Shared banner: scale, |T|, |A|, seed, and the process's peak RSS so far
/// (fixture construction dominates it at large --accounts).
void PrintRunBanner(const char* figure, const BenchScale& scale,
                    const Fixture& fixture, uint64_t seed);

/// Peak resident set size of this process in MiB (getrusage), 0 when
/// unavailable. Printed by the banner and by engine_scaling's epilogue so
/// 1e5 → 1e7 account sweeps report memory alongside time.
double PeakRssMegabytes();

/// One timeline experiment (Figures 9 and 10): a prefix ledger is absorbed
/// and bootstrapped by the chosen strategy (for txallo-* the bootstrap
/// Rebalance is always G-TxAllo — the paper's setup), then the suffix
/// streams in windows of `blocks_per_step` blocks with one Rebalance per
/// step. Any registered online allocator spec runs here: the paper's
/// schedule comparison is "txallo-global" (Global Method) vs
/// "txallo-hybrid:global-every=G" (gap-G hybrid), but --methods accepts an
/// arbitrary strategy schedule list.
struct TimelineResult {
  /// Normalized throughput Λ/λ of each step's window transactions, under
  /// the allocation in force after that step's update.
  std::vector<double> throughput_per_step;
  /// Wall-clock seconds of each step's allocation update.
  std::vector<double> seconds_per_step;
  double average_throughput = 0.0;
};

struct TimelineConfig {
  uint32_t num_shards = 20;
  double eta = 2.0;
  int steps = 60;
  int blocks_per_step = 12;
  /// Prefix length in steps-worth of blocks (the paper's 9:1 split means
  /// prefix_steps = 9 * steps; scale presets use a smaller multiple).
  int prefix_multiple = 3;
  uint64_t seed = 42;
  uint64_t txs_per_block = 150;
  uint64_t num_accounts = 64'000;
};

/// Runs one allocator spec (any online strategy in the registry) over the
/// (deterministic) generated stream. On an invalid or one-shot-only spec,
/// prints why and exits 1, like Fixture::MakeAllocator.
TimelineResult RunTimeline(const TimelineConfig& config,
                           const std::string& spec);

/// Resolves the timeline shape from flags + scale presets.
TimelineConfig ResolveTimelineConfig(const Flags& flags,
                                     const BenchScale& scale, uint64_t seed);

/// The common skeleton of Figures 2, 3, 5, 6, 7 and 8: for each η panel,
/// sweep k and print one row per k with a column per method, extracting a
/// single scalar from each MethodResult. `paper_note` restates what shape
/// the paper reports so the console output is self-interpreting.
int RunStandardSweepFigure(int argc, char** argv, const char* figure_title,
                           const char* metric_name,
                           double (*extract)(const MethodResult&),
                           const char* csv_prefix, const char* paper_note);

}  // namespace txallo::bench
