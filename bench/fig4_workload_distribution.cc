// Figure 4 (paper §VI-B3): normalized per-shard workload σ_i/λ at η=2,
// k=20 for the four methods. The red horizontal line in the paper is
// σ_i = λ, i.e. normalized workload 1.0.
//
// Paper shape: Random has the most total workload (most cross-shard txs);
// Random, METIS and Our Method each have one standout shard holding the
// hub account; Shard Scheduler is flat; several METIS shards sit under the
// line (idle capacity).
#include <algorithm>
#include <cstdio>

#include "common/bench_common.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"allocator", "csv-dir", "eta", "k", "methods", "seed"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 20));
  const double eta = flags.GetDouble("eta", 2.0);
  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner(
      "Figure 4: Workload distribution among shards (sigma_i/lambda; "
      "eta=2, k=20)",
      scale, fixture, seed);

  const std::vector<std::string> methods = bench::ResolveMethodSpecs(flags);
  std::vector<std::string> columns{"shard"};
  for (const std::string& m : methods) {
    columns.push_back(bench::MethodLabel(m));
  }
  bench::SeriesTable table("Normalized workload per shard", columns);

  std::vector<std::vector<double>> profiles;
  for (const std::string& m : methods) {
    bench::MethodResult result = fixture.RunMethod(m, k, eta);
    profiles.push_back(result.report.normalized_workloads);
  }
  for (uint32_t s = 0; s < k; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    for (const auto& profile : profiles) {
      row.push_back(bench::Fmt(profile[s]));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                 "fig4_workload_distribution.csv");

  std::printf("\nSummary (1.0 = capacity line)\n");
  for (size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    const double total = [&] {
      double t = 0.0;
      for (double v : p) t += v;
      return t;
    }();
    const double max = *std::max_element(p.begin(), p.end());
    const size_t under = static_cast<size_t>(
        std::count_if(p.begin(), p.end(), [](double v) { return v < 1.0; }));
    std::printf("  %-16s total=%.2f  max=%.2f  shards-under-line=%zu/%u\n",
                bench::MethodLabel(methods[i]).c_str(), total, max, under,
                k);
  }
  return 0;
}
