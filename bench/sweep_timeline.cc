// Figures 9 and 10 (paper §VI-C): two views of one set of adaptive
// timelines (τ1 = one step of blocks, one Rebalance per step). Figure 9
// plots the normalized throughput per step of the Global Method and of
// hybrids over a range of global gaps τ2; Figure 10 plots the wall-clock
// seconds of each step's update for the Global Method and the hybrid with
// gap --gap (default steps/10; the paper uses 20 of its 200 steps).
// --methods replaces both sets. Each distinct spec runs through
// bench::RunTimeline once; both figures print from those results and write
// fig9_adaptive_throughput.csv and fig10_adaptive_runtime.csv to --csv-dir.
//
//   ./build/bench/sweep_timeline [--gap=G] [--csv-dir=DIR]
//       [--methods="txallo-hybrid:global-every=6;shard-scheduler;contrib"]
//
// Paper shape: Figure 9's curves sit in a narrow band (10.45..10.8x), and
// even a 9-day gap loses little. Figure 10: A-TxAllo ~0.55 s vs G-TxAllo
// ~122 s per update, so the hybrid hugs zero with periodic global spikes;
// the reproduced claim is the ratio, not the absolute seconds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/bench_common.h"

namespace {

using txallo::bench::TimelineResult;
using Runs = std::map<std::string, TimelineResult>;

// Prints one per-step series of `specs` and writes it to `csv_dir`/`csv`.
void PrintSeries(const char* title, const std::vector<std::string>& specs,
                 const Runs& runs, std::vector<double> TimelineResult::*series,
                 int precision, int steps, const std::string& csv_dir,
                 const char* csv) {
  std::vector<std::string> columns{"step"};
  columns.insert(columns.end(), specs.begin(), specs.end());
  txallo::bench::SeriesTable table(title, columns);
  for (int step = 0; step < steps; ++step) {
    std::vector<std::string> row{std::to_string(step)};
    for (const std::string& spec : specs) {
      row.push_back(
          txallo::bench::Fmt((runs.at(spec).*series)[step], precision));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  table.WriteCsv(csv_dir, csv);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"allocator", "csv-dir", "eta", "gap", "k", "methods", "prefix-multiple",
       "seed"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bench::TimelineConfig config =
      bench::ResolveTimelineConfig(flags, scale, seed);
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
  const int steps = config.steps;
  const int gap =
      static_cast<int>(flags.GetInt("gap", std::max(1, steps / 10)));
  const auto hybrid = [](int g) {
    return "txallo-hybrid:global-every=" + std::to_string(g);
  };

  // Figure 9's gaps are the paper's relative to its 200 steps (10%, 20%,
  // 50%, 100%), rescaled to this run's step count; at few steps two of them
  // round to the same spec, which still runs once.
  std::vector<std::string> fig9_defaults{"txallo-global"};
  for (int g : {std::max(1, steps / 10), std::max(1, steps / 5),
                std::max(1, steps / 2), steps}) {
    fig9_defaults.push_back(hybrid(g));
  }
  const std::vector<std::string> fig9_specs =
      bench::ResolveMethodSpecs(flags, fig9_defaults);
  const std::vector<std::string> fig10_specs =
      bench::ResolveMethodSpecs(flags, {"txallo-global", hybrid(gap)});

  std::printf("==============================================================\n");
  std::printf("Figures 9 and 10: adaptive timelines (tau1 = %d blocks/step,"
              " %d steps, k=%u, eta=%g)\n",
              config.blocks_per_step, steps, config.num_shards, config.eta);
  std::printf("Schedules, one run each (allocator registry specs; override "
              "with --methods=a;b;c):\n");
  Runs runs;
  for (const auto* specs : {&fig9_specs, &fig10_specs}) {
    for (const std::string& spec : *specs) {
      if (runs.count(spec) != 0) continue;
      std::printf("  %s\n", spec.c_str());
      runs.emplace(spec, bench::RunTimeline(config, spec));
    }
  }
  std::printf("==============================================================\n");

  std::printf("\nFigure 9: Adaptive throughput evolution\n");
  PrintSeries("Normalized throughput per step", fig9_specs, runs,
              &TimelineResult::throughput_per_step, 3, steps, csv_dir,
              "fig9_adaptive_throughput.csv");
  std::printf("\nFigure 9b: Average throughput per schedule\n");
  for (const std::string& spec : fig9_specs) {
    std::printf("  %-40s %.3f\n", spec.c_str(),
                runs.at(spec).average_throughput);
  }
  std::printf("\nPaper shape check (default schedules): the averages should "
              "sit within a few\npercent of each other; longer gaps may dip "
              "slightly but the loss stays small\n(the paper's 9-day "
              "claim).\n");

  std::printf("\nFigure 10: Allocation running time per step (default pair: "
              "pure G-TxAllo vs hybrid gap=%d)\n", gap);
  PrintSeries("Seconds per step", fig10_specs, runs,
              &TimelineResult::seconds_per_step, 4, steps, csv_dir,
              "fig10_adaptive_runtime.csv");
  std::printf("\nSummary (per schedule)\n");
  std::printf("  %-40s %12s %12s %12s %10s\n", "schedule", "avg s/step",
              "median s/step", "worst s/step", "avg tput");
  std::vector<double> median_seconds;
  for (const std::string& spec : fig10_specs) {
    // Median is the typical step: a hybrid schedule's periodic global
    // spikes (1-in-gap steps) don't drag it, so it stands in for the
    // A-TxAllo per-step cost without hard-coding which steps were global.
    std::vector<double> sorted = runs.at(spec).seconds_per_step;
    std::sort(sorted.begin(), sorted.end());
    double avg = 0.0;
    for (double s : sorted) avg += s;
    median_seconds.push_back(sorted[sorted.size() / 2]);
    std::printf("  %-40s %12.4f %12.4f %12.4f %10.3f\n", spec.c_str(),
                avg / steps, median_seconds.back(), sorted.back(),
                runs.at(spec).average_throughput);
  }
  // The paper's headline comparison (typical G-TxAllo step over typical
  // A-TxAllo step): medians, so the hybrid's global spikes stay out of its
  // own denominator. First spec over last spec.
  if (fig10_specs.size() >= 2 && median_seconds.back() > 0.0) {
    const char* first = fig10_specs.front().c_str();
    const char* last = fig10_specs.back().c_str();
    const double first_tput = runs.at(first).average_throughput;
    const double last_tput = runs.at(last).average_throughput;
    std::printf("\n  %s / %s median ratio: %.1fx (paper: ~220x G-TxAllo "
                "over A-TxAllo at 91M-tx scale)\n", first, last,
                median_seconds.front() / median_seconds.back());
    std::printf("  throughput cost of %s vs %s: %.2f%% (avg %.3f vs %.3f)\n",
                last, first,
                100.0 * (first_tput - last_tput) / std::max(1e-12, first_tput),
                last_tput, first_tput);
  }
  return 0;
}
