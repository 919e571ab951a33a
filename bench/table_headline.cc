// Headline numbers quoted in the paper's abstract and introduction:
//   * k=60: cross-shard ratio 98% (hash) -> ~12% (TxAllo), METIS ~28%;
//   * running time: Shard Scheduler >> METIS >> G-TxAllo >> A-TxAllo
//     (paper: 3447.9s / 422.7s / 122.3s / 0.55s at 91M-tx Python scale);
//   * A-TxAllo per-update cost roughly flat as the chain grows.
#include <cstdio>

#include "common/bench_common.h"
#include "txallo/core/controller.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"csv-dir", "eta", "k", "seed"});
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner("Headline table: abstract/introduction numbers",
                        scale, fixture, seed);

  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 60));
  const double eta = flags.GetDouble("eta", 2.0);

  bench::SeriesTable table(
      "Cross-shard ratio and allocation runtime at k=" + std::to_string(k) +
          ", eta=" + bench::Fmt(eta, 0),
      {"method", "gamma", "paper gamma", "runtime (s)"});
  struct PaperRef {
    const char* spec;  // Allocator-registry name.
    const char* gamma;
  };
  const PaperRef refs[] = {
      {"txallo-global", "~0.12"},
      {"hash", "~0.98"},
      {"metis", "~0.28"},
      {"shard-scheduler", "(between Metis and Random)"},
  };
  for (const PaperRef& ref : refs) {
    bench::MethodResult result = fixture.RunMethod(ref.spec, k, eta);
    table.AddRow({bench::MethodLabel(ref.spec),
                  bench::Fmt(result.report.cross_shard_ratio),
                  ref.gamma,
                  bench::Fmt(result.allocation_seconds, 4)});
  }
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                 "table_headline.csv");

  // A-TxAllo update cost: absorb the fixture's ledger, allocate globally,
  // then time adaptive steps over freshly generated windows.
  std::printf("\nA-TxAllo per-update cost (paper: 0.55 s/hourly update vs "
              "122 s global, 422 s METIS)\n");
  workload::EthereumLikeConfig gen_config = fixture.config();
  workload::EthereumLikeGenerator generator(gen_config);
  alloc::AllocationParams params = fixture.ParamsFor(k, eta);
  core::TxAlloController controller(&generator.registry(), params);
  for (uint64_t b = 0; b < gen_config.num_blocks; ++b) {
    controller.ApplyBlock(generator.NextBlock());
  }
  auto global_info = controller.StepGlobal();
  if (!global_info.ok()) {
    std::fprintf(stderr, "StepGlobal failed: %s\n",
                 global_info.status().ToString().c_str());
    return 1;
  }
  double adaptive_total = 0.0;
  const int kWindows = 5;
  const int kBlocksPerWindow = 20;
  for (int w = 0; w < kWindows; ++w) {
    for (int b = 0; b < kBlocksPerWindow; ++b) {
      controller.ApplyBlock(generator.NextBlock());
    }
    auto info = controller.StepAdaptive();
    if (!info.ok()) return 1;
    adaptive_total += info->total_seconds;
  }
  const double adaptive_avg = adaptive_total / kWindows;
  std::printf("  G-TxAllo on full ledger : %.4f s\n",
              global_info->total_seconds);
  std::printf("  A-TxAllo per window     : %.4f s (%d blocks/window)\n",
              adaptive_avg, kBlocksPerWindow);
  if (adaptive_avg > 0.0) {
    std::printf("  speedup                 : %.0fx\n",
                global_info->total_seconds / adaptive_avg);
  }
  return 0;
}
