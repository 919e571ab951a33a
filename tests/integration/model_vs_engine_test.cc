// Integration: the paper's closed-form performance model (§III-B) against
// the parallel engine that executes it block by block on worker threads.
// The two are independent implementations of the same semantics;
// steady-state numbers must agree.
#include <gtest/gtest.h>

#include <memory>

#include "txallo/alloc/metrics.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/engine/engine.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

using alloc::AllocationParams;

// Two workers, so the threaded lanes and the tick barrier are exercised.
engine::ParallelEngine MakeEngine(uint32_t k, double eta, double capacity,
                                  const alloc::Allocation& allocation) {
  engine::EngineConfig config;
  config.num_shards = k;
  config.work.eta = eta;
  config.work.capacity_per_block = capacity;
  config.num_threads = 2;
  return engine::ParallelEngine(
      config, std::make_shared<alloc::Allocation>(allocation));
}

TEST(ModelVsEngineTest, AllIntraUnderCapacityBothIdeal) {
  // k=2, perfectly split intra traffic, ample capacity: the model says
  // Λ = |T|, ζ = 1; the engine must commit everything in one block
  // (+0 cross rounds).
  alloc::Allocation a(4, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 50; ++i) {
    txs.push_back(chain::Transaction::Simple(0, 1));
    txs.push_back(chain::Transaction::Simple(2, 3));
  }
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = 50.0;  // Exactly σ_i.
  params.epsilon = 0.0;
  auto model = alloc::EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->throughput, 100.0);
  EXPECT_DOUBLE_EQ(model->avg_latency_blocks, 1.0);

  engine::ParallelEngine engine = MakeEngine(2, 2.0, 50.0, a);
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine::SimReport report = engine.DrainAndReport().sim;
  EXPECT_EQ(report.committed, 100u);
  EXPECT_DOUBLE_EQ(report.avg_latency_blocks, 1.0);
  EXPECT_EQ(report.blocks_elapsed, 1u);
}

TEST(ModelVsEngineTest, OverloadedShardLatencyMatchesIntegralModel) {
  // One shard, σ̂ = 4: model mean latency = (4+1)/2 = 2.5 blocks.
  alloc::Allocation a(2, 1);
  a.Assign(0, 0);
  a.Assign(1, 0);
  std::vector<chain::Transaction> txs(100, chain::Transaction::Simple(0, 1));
  AllocationParams params;
  params.num_shards = 1;
  params.eta = 2.0;
  params.capacity = 25.0;
  params.epsilon = 0.0;
  auto model = alloc::EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->avg_latency_blocks, 2.5, 1e-12);
  EXPECT_DOUBLE_EQ(model->worst_latency_blocks, 4.0);

  engine::ParallelEngine engine = MakeEngine(1, 2.0, 25.0, a);
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine::SimReport report = engine.DrainAndReport().sim;
  EXPECT_NEAR(report.avg_latency_blocks, 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(report.max_latency_blocks, 4.0);
}

TEST(ModelVsEngineTest, CrossShardWorkloadInflatesDrainTime) {
  // All-cross traffic at η=3: the engine must take ~η times longer to
  // drain than the same volume of intra traffic — σ's η factor made real.
  alloc::Allocation a(2, 2);
  a.Assign(0, 0);
  a.Assign(1, 1);
  std::vector<chain::Transaction> cross_txs(
      60, chain::Transaction::Simple(0, 1));
  engine::ParallelEngine cross_engine = MakeEngine(2, 3.0, 10.0, a);
  ASSERT_TRUE(cross_engine.SubmitBlock(cross_txs).ok());
  engine::SimReport cross_report = cross_engine.DrainAndReport().sim;
  // Each shard: 60 parts * 3 work / 10 capacity = 18 blocks (+1 commit).
  EXPECT_NEAR(static_cast<double>(cross_report.blocks_elapsed), 19.0, 1.0);

  alloc::Allocation same(2, 2);
  same.Assign(0, 0);
  same.Assign(1, 0);
  engine::ParallelEngine intra_engine = MakeEngine(2, 3.0, 10.0, same);
  ASSERT_TRUE(intra_engine.SubmitBlock(cross_txs).ok());
  engine::SimReport intra_report = intra_engine.DrainAndReport().sim;
  EXPECT_NEAR(static_cast<double>(intra_report.blocks_elapsed), 6.0, 1.0);
}

TEST(ModelVsEngineTest, SteadyStateThroughputAgreesOnRealisticWorkload) {
  // Stream a generated workload through both the model and the engine
  // under the same hash allocation; per-block committed throughput must be
  // within 15% of the model's capacity-clamped Λ per block.
  workload::EthereumLikeConfig gen_config;
  gen_config.num_blocks = 40;
  gen_config.txs_per_block = 80;
  gen_config.num_accounts = 800;
  gen_config.num_communities = 16;
  gen_config.multi_party_rate = 0.0;  // Keep µ <= 2 for a crisp comparison.
  gen_config.self_loop_rate = 0.0;
  workload::EthereumLikeGenerator gen(gen_config);
  chain::Ledger ledger = gen.GenerateLedger(gen_config.num_blocks);
  const uint32_t k = 4;
  const double eta = 2.0;
  auto allocation = baselines::AllocateByHash(gen.registry(), k);

  AllocationParams params = AllocationParams::ForExperiment(
      ledger.num_transactions(), k, eta);
  // Per-block capacity: scale λ to one block's worth of transactions.
  const double per_block_capacity =
      params.capacity / static_cast<double>(gen_config.num_blocks);

  auto model = alloc::EvaluateAllocation(ledger, allocation, params);
  ASSERT_TRUE(model.ok());
  const double model_throughput_per_block =
      model->throughput / static_cast<double>(gen_config.num_blocks);

  engine::ParallelEngine engine =
      MakeEngine(k, eta, per_block_capacity, allocation);
  for (const chain::Block& block : ledger.blocks()) {
    ASSERT_TRUE(engine.SubmitBlock(block.transactions()).ok());
    engine.Tick();
  }
  engine::SimReport report = engine.Snapshot().sim;
  EXPECT_NEAR(report.throughput_per_block, model_throughput_per_block,
              0.15 * model_throughput_per_block);
}

}  // namespace
}  // namespace txallo
