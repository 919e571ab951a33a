// Figures 2, 3, 5, 6, 7 and 8 (paper §VI-B): each plots one scalar of the
// same evaluation of each method at each (k, η). This binary evaluates every
// grid point once (Fixture::RunMethod), then prints each figure's per-η
// tables and writes <csv-dir>/figN_<name>_eta<η>.csv.
//
//   ./build/bench/sweep_figures [--eta-list=2,6] [--methods=a,b,c]
//       [--csv-dir=DIR]
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.h"

namespace {

using txallo::bench::MethodResult;

struct Figure {
  const char* title;
  const char* metric;
  double (*extract)(const MethodResult&);
  const char* csv_prefix;
  const char* paper_note;
};

// ρ (Fig. 3) is normalized by λ so numbers compare across scales, as on the
// paper's axis. Fig. 7's worst case is the most overloaded shard's drain
// time, ⌈σ_max/λ⌉ blocks. Fig. 8's reference points at paper scale (91.8M
// txs, 12.6M accounts, Python): Shard Scheduler 3447.9 s, METIS 422.7 s,
// G-TxAllo 122.3 s; the ordering and relative gaps are the reproduced claim.
const Figure kFigures[] = {
    {"Figure 2: Cross-shard transaction ratio comparison (gamma vs k)",
     "Cross-shard ratio",
     [](const MethodResult& r) { return r.report.cross_shard_ratio; },
     "fig2_cross_shard_ratio",
     "Paper shape: Our Method lowest everywhere (~0.12 at k=60), METIS "
     "next (~0.28 at k=60),\nRandom ~1-1/k (~0.98 at k=60); Our Method's "
     "gamma shrinks as eta grows (self-adjustment)."},
    {"Figure 3: Workload balance comparison (rho/lambda vs k)",
     "Workload stddev / lambda",
     [](const MethodResult& r) {
       return r.report.normalized_workload_stddev;
     },
     "fig3_workload_balance",
     "Paper shape: Shard Scheduler best (near 0), Our Method beats the "
     "other graph methods;\nRandom and METIS degrade with k as the hub "
     "account dominates one shard."},
    {"Figure 5: Throughput comparison (Lambda/lambda vs k)",
     "Normalized throughput (x over unsharded)",
     [](const MethodResult& r) { return r.report.normalized_throughput; },
     "fig5_throughput",
     "Paper shape: linear growth in k for all methods, Our Method steepest "
     "(34.7x at k=60, eta=2\nvs METIS 31.6x); all methods flatten as eta "
     "grows, Our Method most stable."},
    {"Figure 6: Average latency comparison (blocks vs k)",
     "Average latency (blocks)",
     [](const MethodResult& r) { return r.report.avg_latency_blocks; },
     "fig6_avg_latency",
     "Paper shape: Our Method lowest for every eta and k (mostly < 2 "
     "blocks); the gap to the\nbaselines widens as eta grows."},
    {"Figure 7: Worst-case latency comparison (blocks vs k)",
     "Worst-case latency (blocks)",
     [](const MethodResult& r) { return r.report.worst_latency_blocks; },
     "fig7_worst_latency",
     "Paper shape: Shard Scheduler best (no overloaded shard), Our Method "
     "second; Random and\nMETIS blow up with k because the hub account's "
     "shard overloads."},
    {"Figure 8: Running time comparison (seconds vs k)",
     "Allocation running time (s)",
     [](const MethodResult& r) { return r.allocation_seconds; },
     "fig8_running_time",
     "Paper shape: Random ~0, Our Method < METIS by >2x, Shard Scheduler "
     "slowest by an order\nof magnitude (plotted on its own axis in the "
     "paper). Seconds are the wall-clock\nof the Allocate calls the "
     "figures above evaluate."},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(
      argc, argv, {"allocator", "csv-dir", "eta-list", "methods", "seed"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bench::SweepGrid grid = bench::ResolveGrid(flags, scale);
  const std::vector<std::string> methods = bench::ResolveMethodSpecs(flags);
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner(
      "Figures 2, 3, 5, 6, 7 and 8: one evaluation per (method, k, eta)",
      scale, fixture, seed);

  // results[(e * |k| + i) * |methods| + m] is method m at k_i, eta_e.
  std::vector<MethodResult> results;
  results.reserve(grid.etas.size() * grid.shard_counts.size() *
                  methods.size());
  for (double eta : grid.etas) {
    for (uint32_t k : grid.shard_counts) {
      for (const std::string& m : methods) {
        results.push_back(fixture.RunMethod(m, k, eta));
      }
    }
  }

  std::vector<std::string> columns{"k"};
  for (const std::string& m : methods) columns.push_back(bench::MethodLabel(m));
  for (const Figure& figure : kFigures) {
    std::printf("\n%s\n%s\n", figure.title, figure.paper_note);
    const MethodResult* next = results.data();
    for (double eta : grid.etas) {
      char title[160];
      std::snprintf(title, sizeof(title), "%s — eta = %g", figure.metric,
                    eta);
      bench::SeriesTable table(title, columns);
      for (uint32_t k : grid.shard_counts) {
        std::vector<std::string> row{std::to_string(k)};
        for (size_t m = 0; m < methods.size(); ++m) {
          row.push_back(bench::Fmt(figure.extract(*next++)));
        }
        table.AddRow(std::move(row));
      }
      table.Print();
      char filename[160];
      std::snprintf(filename, sizeof(filename), "%s_eta%g.csv",
                    figure.csv_prefix, eta);
      table.WriteCsv(csv_dir, filename);
    }
    std::printf("\nCSV series written to %s/%s_eta*.csv\n", csv_dir.c_str(),
                figure.csv_prefix);
  }
  return 0;
}
