// Allocator matrix: every strategy in the registry × shard count, run two
// ways — the §III-B one-shot evaluator (the figure sweeps' setting) and
// live on the parallel engine behind engine::RunReallocatedStream (the
// engine-backed version of the paper's Fig. 9/10 adaptive comparison, now
// honest: hash/METIS/Louvain/Shard-Scheduler reallocate a running engine
// exactly like TxAllo does). Doubles as the registry's canary: a method
// that falls out of RegisteredNames() falls out of this table.
//
//   ./build/bench/allocator_matrix [--k-list=4,8] [--eta=2]
//       [--engine-blocks=40] [--allocator=SPEC (restrict to one)]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "txallo/engine/pipeline.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"alloc-mode", "allocator", "csv-dir", "engine-blocks",
       "engine-txs-per-block", "eta", "k-list", "seed"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double eta = flags.GetDouble("eta", 2.0);
  const int engine_blocks =
      static_cast<int>(flags.GetInt("engine-blocks", 40));
  const uint64_t engine_txs_per_block =
      static_cast<uint64_t>(flags.GetInt("engine-txs-per-block", 120));
  auto alloc_mode =
      engine::ParseAllocatorMode(flags.GetString("alloc-mode", "sync"));
  if (!alloc_mode.ok()) {
    std::fprintf(stderr, "%s\n", alloc_mode.status().ToString().c_str());
    return 1;
  }
  std::vector<uint32_t> k_list;
  for (const std::string& item :
       bench::SplitList(flags.GetString("k-list", "4,8"))) {
    k_list.push_back(static_cast<uint32_t>(std::atoi(item.c_str())));
  }

  // --allocator restricts the matrix to one spec; default is every
  // registered name (which is the point: nothing can silently drop out).
  std::vector<std::string> specs;
  const std::string single = bench::ResolveAllocatorSpec(flags, "");
  if (!single.empty()) {
    specs.push_back(single);
  } else {
    specs = allocator::RegisteredNames();
  }

  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner("Allocator matrix: every registered strategy, "
                        "one-shot and live on the engine",
                        scale, fixture, seed);
  std::printf("registered allocators:\n");
  for (const std::string& name : allocator::RegisteredNames()) {
    std::printf("  %-16s %s\n", name.c_str(),
                allocator::DescribeAllocator(name).c_str());
  }

  // Leg 1: one-shot partition + model evaluation on the shared fixture.
  bench::SeriesTable oneshot(
      "One-shot evaluation (eta=" + bench::Fmt(eta, 0) + ")",
      {"allocator", "k", "gamma", "Lambda/lambda", "zeta(avg)", "rho/lambda",
       "alloc-secs"});
  for (const std::string& spec : specs) {
    for (uint32_t k : k_list) {
      bench::MethodResult result = fixture.RunMethod(spec, k, eta);
      oneshot.AddRow({spec, std::to_string(k),
                      bench::Fmt(result.report.cross_shard_ratio),
                      bench::Fmt(result.report.normalized_throughput, 2),
                      bench::Fmt(result.report.avg_latency_blocks, 2),
                      bench::Fmt(result.report.normalized_workload_stddev, 2),
                      bench::Fmt(result.allocation_seconds, 4)});
    }
  }
  oneshot.Print();

  // Leg 2: the same strategies reallocating a live parallel engine over a
  // shared drifting workload (generated once — every cell streams the
  // identical ledger), so the online path has something to adapt to; the
  // engine hash-routes accounts born since the last epoch, as a real
  // chain would.
  workload::EthereumLikeConfig engine_workload;
  engine_workload.txs_per_block = engine_txs_per_block;
  engine_workload.num_blocks = static_cast<uint64_t>(engine_blocks);
  engine_workload.num_accounts = std::min<uint64_t>(scale.num_accounts, 16'000);
  engine_workload.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(32, engine_workload.num_accounts / 160));
  engine_workload.seed = seed;
  engine_workload.drift_interval_blocks =
      std::max<uint64_t>(1, static_cast<uint64_t>(engine_blocks) / 3);
  workload::EthereumLikeGenerator generator(engine_workload);
  const chain::Ledger ledger =
      generator.GenerateLedger(engine_workload.num_blocks);

  bench::SeriesTable live(
      "Live engine pipeline (" + std::to_string(engine_blocks) + " blocks x " +
          std::to_string(engine_txs_per_block) + " txs, epochs of " +
          std::to_string(std::max(5, engine_blocks / 6)) + " blocks)",
      {"allocator", "k", "committed", "tput/blk", "cross%", "epochs",
       "moved", "alloc-secs"});
  for (const std::string& spec : specs) {
    for (uint32_t k : k_list) {
      allocator::AllocatorOptions options;
      options.params = alloc::AllocationParams::ForExperiment(
          ledger.num_transactions(), k, eta);
      options.registry = &generator.registry();
      options.seed = seed;
      auto made = allocator::MakeAllocatorFromSpec(spec, options);
      if (!made.ok()) {
        std::fprintf(stderr, "allocator '%s': %s\n", spec.c_str(),
                     made.status().ToString().c_str());
        return 1;
      }
      allocator::OnlineAllocator* online = (*made)->AsOnline();
      if (online == nullptr) {
        live.AddRow({spec, std::to_string(k), "(one-shot only)", "-", "-",
                     "-", "-", "-"});
        continue;
      }

      engine::EngineConfig engine_config = bench::MakeEngineConfig(
          scale, k, eta,
          1.3 * static_cast<double>(engine_txs_per_block) / k);
      engine_config.hash_route_unassigned = true;
      engine::ParallelEngine engine(engine_config, nullptr);
      engine::PipelineConfig pipeline;
      pipeline.blocks_per_epoch =
          static_cast<uint32_t>(std::max(5, engine_blocks / 6));
      pipeline.allocator_mode = *alloc_mode;
      auto result =
          engine::RunReallocatedStream(ledger, online, &engine, pipeline);
      if (!result.ok()) {
        std::fprintf(stderr, "engine pipeline under '%s' failed: %s\n",
                     spec.c_str(), result.status().ToString().c_str());
        return 1;
      }
      const double cross_pct =
          result->report.sim.submitted == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(result->report.sim.cross_shard_submitted) /
                    static_cast<double>(result->report.sim.submitted);
      live.AddRow(
          {spec, std::to_string(k),
           std::to_string(result->report.sim.committed),
           bench::Fmt(result->report.sim.throughput_per_block, 1),
           bench::Fmt(cross_pct, 1), std::to_string(result->epochs),
           std::to_string(result->accounts_moved),
           bench::Fmt(result->alloc_seconds, 4)});
    }
  }
  live.Print();

  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
  oneshot.WriteCsv(csv_dir, "allocator_matrix_oneshot.csv");
  live.WriteCsv(csv_dir, "allocator_matrix_engine.csv");
  std::printf(
      "\nNote: the live leg routes by each strategy's Rebalance() output; "
      "the broker row's\nmapping is its inner allocator's — broker "
      "economics only change the model-level\nevaluation (see "
      "brokerchain_comparison), not the engine's cost semantics.\n");
  return 0;
}
