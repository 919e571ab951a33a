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
  Result<std::vector<uint32_t>> k_list = bench::ParseNumberList<uint32_t>(
      "k-list", flags.GetString("k-list", "4,8"));
  if (!k_list.ok()) {
    std::fprintf(stderr, "%s\n", k_list.status().ToString().c_str());
    return 1;
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
  for (const common::EntryDoc& doc : allocator::DescribeAllocators()) {
    std::printf("  %-16s %s\n", std::string(doc.name).c_str(),
                std::string(doc.summary).c_str());
  }

  // Leg 1: one-shot partition + model evaluation on the shared fixture.
  bench::SeriesTable oneshot(
      "One-shot evaluation (eta=" + bench::Fmt(eta, 0) + ")",
      {"allocator", "k", "gamma", "Lambda/lambda", "zeta(avg)", "rho/lambda",
       "alloc-secs"});
  for (const std::string& spec : specs) {
    for (uint32_t k : *k_list) {
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
  const uint32_t epoch_blocks =
      static_cast<uint32_t>(std::max(5, engine_blocks / 6));
  std::unique_ptr<workload::Scenario> scenario = bench::MakeScenarioOrDie(
      "ethereum:drift-interval=" +
          std::to_string(std::max(1, engine_blocks / 3)),
      bench::EngineBenchShape(scale, static_cast<uint64_t>(engine_blocks),
                              engine_txs_per_block, seed));
  const chain::Ledger ledger = scenario->GenerateLedger(scenario->num_blocks());
  bench::StreamDriver driver(flags);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = epoch_blocks;
  pipeline.allocator_mode = *alloc_mode;

  bench::SeriesTable live(
      "Live engine pipeline (" + std::to_string(engine_blocks) + " blocks x " +
          std::to_string(engine_txs_per_block) + " txs, epochs of " +
          std::to_string(epoch_blocks) + " blocks)",
      {"allocator", "k", "committed", "tput/blk", "cross%", "epochs",
       "moved", "alloc-secs"});
  for (const std::string& spec : specs) {
    for (uint32_t k : *k_list) {
      const bench::StreamDriver::Run run = driver.RunCell(
          spec, spec + " at k=" + std::to_string(k), ledger,
          scenario->registry(), seed,
          bench::MakeEngineConfig(
              scale, k, eta,
              1.3 * static_cast<double>(engine_txs_per_block) / k),
          pipeline);
      const engine::PipelineResult& result = run.result;
      const double cross_pct = bench::CrossShardPercent(
          result.report.sim.cross_shard_submitted, result.report.sim.submitted);
      live.AddRow(
          {spec, std::to_string(k),
           std::to_string(result.report.sim.committed),
           bench::Fmt(result.report.sim.throughput_per_block, 1),
           bench::Fmt(cross_pct, 1), std::to_string(result.epochs),
           std::to_string(result.accounts_moved),
           bench::Fmt(result.alloc_seconds, 4)});
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
