// Engine parity across worker counts on seed workloads: the serial run
// (one worker) is the reference, and runs with 2 and 4 workers must report
// the same logical results, because blocks are the engine's unit of time
// and every shard's work per block is fixed by the mapping alone. The seed
// workloads' ticks are small enough to run inline; the straddle case mixes
// inline ticks with ticks that fan out to the helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "txallo/alloc/params.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/core/global.h"
#include "txallo/engine/engine.h"
#include "txallo/graph/builder.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

engine::EngineReport RunEngine(const chain::Ledger& ledger,
                               const alloc::Allocation& alloc, uint32_t k,
                               double eta, double capacity,
                               uint32_t num_threads) {
  engine::EngineConfig config;
  config.num_shards = k;
  config.work.eta = eta;
  config.work.capacity_per_block = capacity;
  config.num_threads = num_threads;
  engine::ParallelEngine engine(
      config, std::make_shared<alloc::Allocation>(alloc));
  for (const chain::Block& block : ledger.blocks()) {
    EXPECT_TRUE(engine.SubmitBlock(block.transactions()).ok());
    engine.Tick();
  }
  engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.num_workers, num_threads);
  return report;
}

// Runs with 1, 2 and 4 workers and checks the threaded runs against the
// serial one. Returns the serial report.
engine::EngineReport ExpectParity(const chain::Ledger& ledger,
                                  const alloc::Allocation& alloc, uint32_t k,
                                  double eta, double capacity) {
  const engine::EngineReport serial =
      RunEngine(ledger, alloc, k, eta, capacity, 1);
  const engine::SimReport& s = serial.sim;
  EXPECT_EQ(s.committed, s.submitted);
  EXPECT_DOUBLE_EQ(s.residual_work, 0.0);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const engine::EngineReport parallel =
        RunEngine(ledger, alloc, k, eta, capacity, threads);
    const engine::SimReport& e = parallel.sim;
    EXPECT_EQ(e.submitted, s.submitted);
    EXPECT_EQ(e.cross_shard_submitted, s.cross_shard_submitted);
    EXPECT_EQ(e.committed, s.committed);
    EXPECT_EQ(parallel.cross_shard_committed, serial.cross_shard_committed);
    EXPECT_EQ(e.blocks_elapsed, s.blocks_elapsed);
    EXPECT_NEAR(e.throughput_per_block, s.throughput_per_block, 1e-9);
    EXPECT_NEAR(e.avg_latency_blocks, s.avg_latency_blocks, 1e-9);
    EXPECT_DOUBLE_EQ(e.max_latency_blocks, s.max_latency_blocks);
    EXPECT_NEAR(e.mean_utilization, s.mean_utilization, 1e-12);
    EXPECT_DOUBLE_EQ(e.residual_work, s.residual_work);
  }
  return serial;
}

TEST(EngineParityTest, HashAllocationSeedWorkload) {
  workload::EthereumLikeConfig config;
  config.num_blocks = 60;
  config.txs_per_block = 120;
  config.num_accounts = 4'000;
  config.num_communities = 40;
  config.seed = 42;
  workload::EthereumLikeGenerator gen(config);
  const chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  const uint32_t k = 8;
  const auto allocation = baselines::AllocateByHash(gen.registry(), k);
  // Mildly under-provisioned so queues build and latency is non-trivial.
  const double capacity =
      1.1 * static_cast<double>(config.txs_per_block) / k;
  const engine::EngineReport serial =
      ExpectParity(ledger, allocation, k, 2.0, capacity);
  EXPECT_GT(serial.sim.max_latency_blocks, 1.0);
  EXPECT_GT(serial.sim.cross_shard_submitted, 0u);
}

TEST(EngineParityTest, TxAlloAllocationSeedWorkload) {
  workload::EthereumLikeConfig config;
  config.num_blocks = 50;
  config.txs_per_block = 100;
  config.num_accounts = 3'000;
  config.num_communities = 30;
  config.seed = 7;
  workload::EthereumLikeGenerator gen(config);
  const chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  const uint32_t k = 8;
  const double eta = 2.0;
  graph::TransactionGraph graph = graph::BuildTransactionGraph(ledger);
  graph.EnsureNodeCount(gen.registry().size());
  graph.Consolidate();
  const alloc::AllocationParams params =
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                             eta);
  auto result = core::RunGlobalTxAllo(graph, gen.registry().IdsInHashOrder(),
                                      params);
  ASSERT_TRUE(result.ok());
  const double capacity =
      1.05 * static_cast<double>(config.txs_per_block) / k;
  const engine::EngineReport serial =
      ExpectParity(ledger, *result, k, eta, capacity);
  // TxAllo keeps most traffic intra-shard on this workload; check that the
  // harness exercised cross-shard commits anyway.
  EXPECT_GT(serial.sim.cross_shard_submitted, 0u);
  EXPECT_EQ(serial.cross_shard_committed, serial.sim.cross_shard_submitted);
}

TEST(EngineParityTest, TicksStraddlingTheInlineThresholdMatchOneLane) {
  // Every third submitted block concatenates six generated blocks. With the
  // synthetic spin below, those ticks' work estimate is above
  // common::kInlineWorkThreshold and the lanes fan out to the helpers; the
  // small ticks in between run inline on the driver. The mix must report
  // and trace exactly what one lane does.
  workload::EthereumLikeConfig config;
  config.num_blocks = 160;
  config.txs_per_block = 50;
  config.num_accounts = 4'000;
  config.num_communities = 40;
  config.seed = 5;
  workload::EthereumLikeGenerator gen(config);
  const chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  std::vector<std::vector<chain::Transaction>> submitted;
  for (size_t b = 0; b < ledger.num_blocks();) {
    const size_t take = submitted.size() % 3 == 0 ? 6 : 1;
    std::vector<chain::Transaction>& block = submitted.emplace_back();
    for (size_t end = std::min(b + take, ledger.num_blocks()); b < end; ++b) {
      const auto& txs = ledger.blocks()[b].transactions();
      block.insert(block.end(), txs.begin(), txs.end());
    }
  }
  const uint32_t k = 8;
  const auto allocation = std::make_shared<alloc::Allocation>(
      baselines::AllocateByHash(gen.registry(), k));

  const auto run = [&](uint32_t threads) {
    engine::EngineConfig engine_config;
    engine_config.num_shards = k;
    engine_config.work.eta = 2.0;
    // Ample: every block drains within its own tick, so each tick's
    // estimate is its own block's parts.
    engine_config.work.capacity_per_block = 400.0;
    engine_config.num_threads = threads;
    engine_config.spin_iterations_per_unit = 256;
    engine::ParallelEngine engine(engine_config, allocation);
    engine.EnableTraceRecording();
    for (const std::vector<chain::Transaction>& block : submitted) {
      EXPECT_TRUE(engine.SubmitBlock(block).ok());
      engine.Tick();
    }
    engine::EngineReport report = engine.DrainAndReport();
    return std::make_pair(std::move(report), engine.ExtractTrace());
  };
  const auto [serial, serial_trace] = run(1);
  const auto [mixed, mixed_trace] = run(4);
  EXPECT_EQ(serial.fanned_out_ticks, 0u);
  EXPECT_GT(mixed.fanned_out_ticks, 0u);
  EXPECT_LT(mixed.fanned_out_ticks, mixed.sim.blocks_elapsed / 2);

  EXPECT_EQ(mixed.sim.submitted, serial.sim.submitted);
  EXPECT_EQ(mixed.sim.committed, serial.sim.committed);
  EXPECT_EQ(mixed.sim.cross_shard_submitted, serial.sim.cross_shard_submitted);
  EXPECT_EQ(mixed.sim.blocks_elapsed, serial.sim.blocks_elapsed);
  EXPECT_EQ(mixed.sim.throughput_per_block, serial.sim.throughput_per_block);
  EXPECT_EQ(mixed.sim.avg_latency_blocks, serial.sim.avg_latency_blocks);
  EXPECT_EQ(mixed.sim.max_latency_blocks, serial.sim.max_latency_blocks);
  EXPECT_EQ(mixed.sim.mean_utilization, serial.sim.mean_utilization);
  EXPECT_EQ(mixed.sim.residual_work, serial.sim.residual_work);
  EXPECT_EQ(mixed.max_queue_depth, serial.max_queue_depth);
  EXPECT_EQ(mixed.prepares_received, serial.prepares_received);
  EXPECT_EQ(mixed.cross_shard_committed, serial.cross_shard_committed);
  EXPECT_EQ(mixed.aborted, serial.aborted);
  EXPECT_EQ(mixed.commit_latency_blocks, serial.commit_latency_blocks);
  EXPECT_EQ(serial.sim.committed, serial.sim.submitted);

  EXPECT_FALSE(serial_trace.prepares.empty());
  EXPECT_EQ(mixed_trace.prepares, serial_trace.prepares);
  EXPECT_EQ(mixed_trace.commits, serial_trace.commits);
}

}  // namespace
}  // namespace txallo
