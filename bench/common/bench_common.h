// Shared machinery for the figure-reproduction benchmarks: workload fixture
// construction, allocation-method dispatch through the allocator registry
// (allocator/registry.h), flag parsing, and aligned table printing.
//
// Every binary honours:
//   TXALLO_SCALE=small|medium|large   (or --scale=...)
//   --txs/--accounts/--seed/--max-shards/--shard-step/--eta-list
//   --methods=a,b,c     allocator specs the sweep compares (default: the
//                       paper's four)
//   --allocator=SPEC    single-method override (also TXALLO_ALLOCATOR)
//   --csv-dir=DIR       where to drop machine-readable series (default
//                       ./bench_out)
//   --record=PATH       engine benches: record the first streaming run's
//                       trace to PATH (StreamDriver below)
//   --replay=PATH       engine benches: re-execute the trace at PATH and
//                       verify bit-identity instead of running live
#pragma once

#include <cstdint>
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
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
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
  /// decorator prices brokered transactions honestly). A failed allocation
  /// or evaluation prints the spec, k, η and the status, and exits 1.
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

/// Offered load (transactions per tick) for the open-loop benches:
/// --offered-load beats the TXALLO_OFFERED_LOAD environment variable beats
/// `fallback`. A set-but-malformed value is ParsePositiveRate's error,
/// never silently the fallback.
Result<double> ResolveOfferedLoad(const Flags& flags, double fallback);

/// Strict parse of a transactions-per-tick rate read from `source` (a flag
/// or environment variable name): the whole of `text` must be one finite
/// positive number. "8x", "" or "nan" is InvalidArgument naming `source`
/// and the text — never silently a default, which would make a sweep lie.
Result<double> ParsePositiveRate(const std::string& source,
                                 const std::string& text);

/// Strict parse of flag `name`'s comma-separated list `text`, for T =
/// double or uint32_t: every clause must be one whole finite number (a
/// non-negative integer for uint32_t), and the list must not be empty.
/// "x", "4x" or "nan" is InvalidArgument quoting `name` and the clause.
template <typename T>
Result<std::vector<T>> ParseNumberList(const std::string& name,
                                       const std::string& text);

/// mkdir -p: creates `path` and any missing parents (best-effort; callers
/// surface failures through the file writes that follow).
void EnsureDirs(const std::string& path);

/// Standard experiment grid (the paper's panels): η ∈ {2,4,6,8,10} and
/// k from 2 to max_shards. Overridable via --eta-list="2,6,10"; a malformed
/// list prints ParseNumberList's status and exits 1.
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

/// The engine benches' cross% column: 100 · cross / submitted, 0 when
/// nothing was submitted.
double CrossShardPercent(uint64_t cross_shard_submitted, uint64_t submitted);

/// Engine configuration for benches/examples: k shards under the paper's
/// cost model, parallelism pinned by --threads / TXALLO_THREADS (0 = the
/// engine's hardware default). `num_threads` overrides the scale's value
/// when >= 0 (thread-sweep benches pass each sweep point here).
engine::EngineConfig MakeEngineConfig(const BenchScale& scale, uint32_t k,
                                      double eta, double capacity_per_block,
                                      int num_threads = -1);

/// A streaming-engine bench sized from the scale presets (timeline_series,
/// open_loop_latency, allocator_matrix): `blocks` blocks of `txs_per_block`
/// transactions over at most 16'000 accounts, one community per 160.
workload::ScenarioShape EngineBenchShape(const BenchScale& scale,
                                         uint64_t blocks,
                                         uint64_t txs_per_block,
                                         uint64_t seed);

/// The one streaming cell of the engine benches (gauntlet, timeline_series,
/// open_loop_latency, allocator_matrix): strategy, engine, pipeline run,
/// and the --record / --replay pair.
///
/// Record/replay (engine/replay.h): --record=PATH saves the trace of the
/// bench's first streaming run — its first cell, in the order the bench
/// runs them; every other cell still runs, unrecorded — and prints exactly
/// one line starting `recorded `. --replay=PATH runs no strategy: it
/// re-executes the saved trace against the regenerated workload (the
/// workload flags must reproduce the recorded ledger, whose fingerprint
/// is checked; threads and allocator mode are free to differ) and fails
/// naming the first divergent field unless the run is bit-identical. The
/// two flags together are an error.
class StreamDriver {
 public:
  /// What one run hands back. The engine stays alive for its state root;
  /// the strategy (null on replay) outlives it, as it must.
  struct Run {
    std::unique_ptr<allocator::Allocator> strategy;
    std::unique_ptr<engine::ParallelEngine> engine;
    engine::PipelineResult result;

    /// Hex of the engine's global Merkle root; "" with the state backend
    /// off.
    std::string StateRootHex() const;
  };

  /// Reads --record / --replay (exit 1 when both are set) and, when
  /// replaying, loads the trace (exit 1 naming the error).
  explicit StreamDriver(const Flags& flags);

  /// The loaded trace in replay mode, else null.
  const engine::ReplayLog* replay() const {
    return replay_path_.empty() ? nullptr : &trace_;
  }

  /// Runs one cell: builds `spec`'s strategy over `registry` and `seed`
  /// under the engine's own θ (ForExperiment over the ledger's size and
  /// `engine_config`'s k and η) before any engine exists, then streams
  /// `ledger` through engine::RunReallocatedStream on a fresh engine built
  /// from `engine_config` (hash_route_unassigned forced on, as the pipeline
  /// requires). Records when it is the first run under --record. `label`
  /// names the cell, spec included, in messages. Any failure — an invalid
  /// or one-shot-only spec, a failed run, an unwritable trace — exits 1
  /// naming `label`.
  Run RunCell(const std::string& spec, const std::string& label,
              const chain::Ledger& ledger,
              const chain::AccountRegistry& registry, uint64_t seed,
              engine::EngineConfig engine_config,
              engine::PipelineConfig pipeline);

  /// Replay mode: re-executes the trace against `ledger` on a fresh engine
  /// built from `engine_config` and prints the `replay of …` line; exits 1
  /// with the divergence (or the refused meta field) otherwise. The
  /// pipeline's workload_spec is checked against the trace only when
  /// --scenario was given: the ledger fingerprint is always checked, but a
  /// default spec may render differently from the recorded one.
  Run Replay(const chain::Ledger& ledger, engine::EngineConfig engine_config,
             engine::PipelineConfig pipeline) const;

 private:
  std::string record_path_;
  std::string replay_path_;
  bool scenario_flag_ = false;
  bool recorded_ = false;
  engine::ReplayLog trace_;
};

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
/// prints why and exits 1, like Fixture::MakeAllocator; a failed Rebalance
/// or window evaluation prints the spec, the step and the status, and
/// exits 1.
TimelineResult RunTimeline(const TimelineConfig& config,
                           const std::string& spec);

/// Resolves the timeline shape from flags + scale presets. A negative
/// --prefix-multiple prints the flag and exits 1.
TimelineConfig ResolveTimelineConfig(const Flags& flags,
                                     const BenchScale& scale, uint64_t seed);

}  // namespace txallo::bench
