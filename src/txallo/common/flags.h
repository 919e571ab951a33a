// Tiny command-line flag parser for the bench/example binaries.
// Supports --name=value and --name value, plus environment-variable
// defaults so `for b in build/bench/*; do $b; done` runs unattended.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "txallo/common/status.h"

namespace txallo {

/// Names ResolveBenchScale() reads.
inline constexpr std::string_view kBenchScaleFlagNames[] = {
    "scale",      "txs",   "accounts",        "max-shards",
    "shard-step", "steps", "blocks-per-step", "threads"};

/// Parsed command line.
class Flags {
 public:
  /// Parses argv. Flags look like --key=value or --key value; a bare --key
  /// is stored with value "true". Every name is kept; CheckNames() tells
  /// the ones a binary reads from typos.
  static Flags Parse(int argc, char** argv);

  /// Parse(), then CheckNames(known): an unknown name is printed to stderr
  /// and the process exits 1, so a misspelt flag never runs a binary with
  /// its defaults.
  static Flags ParseOrExit(int argc, char** argv,
                           const std::vector<std::string_view>& known);

  /// InvalidArgument naming the first parsed flag (in name order) that is
  /// not in `known`; OK when every name is.
  Status CheckNames(const std::vector<std::string_view>& known) const;

  bool Has(const std::string& key) const;

  /// String lookup with default.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// Integer lookup with default; falls back to default on parse failure.
  int64_t GetInt(const std::string& key, int64_t default_value) const;

  /// Double lookup with default.
  double GetDouble(const std::string& key, double default_value) const;

  /// Bool lookup ("true"/"1"/"yes" are true).
  bool GetBool(const std::string& key, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Scale presets shared by the bench binaries. Controlled by the
/// TXALLO_SCALE environment variable: "small" (default, seconds per figure),
/// "medium" (tens of seconds), "large" (minutes, closest to paper scale).
struct BenchScale {
  uint64_t num_transactions;
  uint64_t num_accounts;
  int max_shards;        // Largest k in sweeps (paper: 60).
  int shard_step;        // Granularity of the k sweep.
  int timeline_steps;    // Fig. 9/10 number of time steps (paper: 200).
  int blocks_per_step;   // Fig. 9/10 blocks per step (paper: 300).
  // Engine worker parallelism (--threads or TXALLO_THREADS); 0 = let the
  // engine pick (hardware concurrency, clamped to the shard count). Not a
  // scale-preset property, so every preset starts at 0.
  int num_threads;
};

/// Resolves the scale preset from --scale (or TXALLO_SCALE). An unknown
/// preset name is InvalidArgument naming the value and the valid presets;
/// a --shard-step, --steps or --blocks-per-step below 1 is InvalidArgument
/// quoting the flag.
Result<BenchScale> ResolveBenchScale(const Flags& flags);

/// Resolves the allocation-strategy spec shared by benches and examples:
/// --allocator beats the TXALLO_ALLOCATOR environment variable beats
/// `default_spec`. The value is an allocator-registry spec, e.g. "metis" or
/// "txallo-hybrid:global-every=4" (see allocator/registry.h).
std::string ResolveAllocatorSpec(const Flags& flags,
                                 const std::string& default_spec);

/// Resolves the workload-scenario spec shared by benches and examples:
/// --scenario beats the TXALLO_SCENARIO environment variable beats
/// `default_spec`. The value is a scenario-registry spec, e.g. "ethereum"
/// or "spike:peak-share=0.7" (see workload/scenario_registry.h).
std::string ResolveScenarioSpec(const Flags& flags,
                                const std::string& default_spec);

}  // namespace txallo
