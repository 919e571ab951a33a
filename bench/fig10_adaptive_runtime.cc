// Figure 10 (paper §VI-C2): per-step allocation running time of pure
// G-TxAllo vs the hybrid schedule (A-TxAllo every step, G-TxAllo every
// `gap` steps — the paper uses gap=20 of its 200 steps).
//
// The schedules run through the allocator registry, so --methods accepts an
// arbitrary strategy list ("metis;txallo-hybrid:global-every=6;contrib")
// whose per-step allocation cost is compared side by side.
//
// Paper numbers at their scale: A-TxAllo ~0.55s vs G-TxAllo ~122s and
// METIS ~422s — the hybrid curve hugs zero with periodic global spikes.
// The reproduced claim is the ratio (orders of magnitude) and the flat
// A-TxAllo cost as the chain grows, not the absolute seconds.
#include <algorithm>
#include <cstdio>

#include "common/bench_common.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"allocator", "csv-dir", "eta", "gap", "k", "methods", "prefix-multiple",
       "seed"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bench::TimelineConfig config =
      bench::ResolveTimelineConfig(flags, scale, seed);
  const int gap =
      static_cast<int>(flags.GetInt("gap", std::max(1, config.steps / 10)));

  const std::vector<std::string> specs = bench::ResolveMethodSpecs(
      flags, {"txallo-global",
              "txallo-hybrid:global-every=" + std::to_string(gap)});

  std::printf("==============================================================\n");
  std::printf("Figure 10: Allocation running time per step (k=%u, %d steps; "
              "default pair:\npure G-TxAllo vs hybrid gap=%d)\n",
              config.num_shards, config.steps, gap);
  std::printf("==============================================================\n");

  std::vector<bench::TimelineResult> results;
  results.reserve(specs.size());
  for (const std::string& spec : specs) {
    results.push_back(bench::RunTimeline(config, spec));
  }

  std::vector<std::string> columns{"step"};
  for (const std::string& spec : specs) columns.push_back(spec);
  bench::SeriesTable table("Seconds per step", columns);
  for (int step = 0; step < config.steps; ++step) {
    std::vector<std::string> row{std::to_string(step)};
    for (const auto& result : results) {
      row.push_back(bench::Fmt(result.seconds_per_step[step], 4));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                 "fig10_adaptive_runtime.csv");

  std::printf("\nSummary (per schedule)\n");
  std::printf("  %-40s %12s %12s %12s %10s\n", "schedule", "avg s/step",
              "median s/step", "worst s/step", "avg tput");
  std::vector<double> median_seconds(specs.size(), 0.0);
  for (size_t i = 0; i < specs.size(); ++i) {
    double avg = 0.0;
    double worst = 0.0;
    for (double s : results[i].seconds_per_step) {
      avg += s;
      worst = std::max(worst, s);
    }
    if (config.steps > 0) avg /= config.steps;
    // Median is the typical step: a hybrid schedule's periodic global
    // spikes (1-in-gap steps) don't drag it, so it stands in for the
    // A-TxAllo per-step cost without hard-coding which steps were global.
    std::vector<double> sorted = results[i].seconds_per_step;
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty()) median_seconds[i] = sorted[sorted.size() / 2];
    std::printf("  %-40s %12.4f %12.4f %12.4f %10.3f\n", specs[i].c_str(),
                avg, median_seconds[i], worst,
                results[i].average_throughput);
  }
  // The paper's headline comparison (typical G-TxAllo step over typical
  // A-TxAllo step): medians, so the hybrid's global spikes stay out of its
  // own denominator. First spec over last spec.
  if (specs.size() >= 2 && median_seconds.back() > 0.0) {
    std::printf("\n  %s / %s median ratio: %.1fx (paper: ~220x G-TxAllo "
                "over A-TxAllo at 91M-tx scale)\n",
                specs.front().c_str(), specs.back().c_str(),
                median_seconds.front() / median_seconds.back());
    std::printf("  throughput cost of %s vs %s: %.2f%% (avg %.3f vs "
                "%.3f)\n",
                specs.back().c_str(), specs.front().c_str(),
                100.0 * (results.front().average_throughput -
                         results.back().average_throughput) /
                    std::max(1e-12, results.front().average_throughput),
                results.back().average_throughput,
                results.front().average_throughput);
  }
  return 0;
}
