// Online reallocation: copy-on-write snapshot swaps between blocks, and
// the allocator-driven epoch pipeline. Installs are driver API, like
// SubmitBlock and Tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

TEST(EngineReallocTest, InstallBetweenBlocksRedirectsTraffic) {
  // Two accounts on shard 0, then re-point account 1 to shard 1: traffic
  // turns cross-shard from the next submitted block, mid-run.
  auto before = std::make_shared<alloc::Allocation>(2, 2);
  before->Assign(0, 0);
  before->Assign(1, 0);
  engine::EngineConfig config;
  config.num_shards = 2;
  config.work.capacity_per_block = 100.0;
  engine::ParallelEngine engine(config, before);
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  auto after = std::make_shared<alloc::Allocation>(2, 2);
  after->Assign(0, 0);
  after->Assign(1, 1);
  ASSERT_TRUE(engine.InstallAllocation(after).ok());
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted, 20u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 10u);
  EXPECT_EQ(report.sim.committed, 20u);
  EXPECT_EQ(report.reallocations, 1u);
}

TEST(EngineReallocTest, DriverInstallsBetweenFannedOutTicksRouteTheNextBlock) {
  // The driver installs a new mapping before every block: each block's
  // prepares land on the shards of the mapping installed just before it,
  // and every transaction commits. The synthetic spin puts every tick's
  // parts above the pool's inline threshold, so the helpers run the lanes
  // that execute those prepares (the TSan job checks the hand-off).
  const uint32_t k = 4;
  const size_t accounts = 128;
  // Round r's mapping: even rounds put the pair (2i, 2i+1) on two shards,
  // odd rounds on one, so a block routed by a stale mapping would show up
  // as a different shard set (and part count).
  const auto shard_of = [](size_t a, uint32_t round) {
    return static_cast<alloc::ShardId>(((a >> (round % 2)) + round) % k);
  };
  const auto mapping = [&](uint32_t round) {
    auto next = std::make_shared<alloc::Allocation>(accounts, k);
    for (size_t a = 0; a < accounts; ++a) {
      next->Assign(static_cast<chain::AccountId>(a), shard_of(a, round));
    }
    return next;
  };
  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block = 1000.0;
  config.spin_iterations_per_unit = 2'048;
  engine::ParallelEngine engine(config, nullptr);
  engine.EnableTraceRecording();

  std::vector<chain::Transaction> txs;
  for (size_t a = 0; a + 1 < accounts; a += 2) {
    txs.push_back(chain::Transaction::Simple(
        static_cast<chain::AccountId>(a),
        static_cast<chain::AccountId>(a + 1)));
  }
  constexpr uint32_t kBlocks = 20;
  for (uint32_t round = 0; round < kBlocks; ++round) {
    ASSERT_TRUE(engine.InstallAllocation(mapping(round)).ok());
    EXPECT_EQ(engine.allocation_snapshot()->shard_of(1), shard_of(1, round));
    ASSERT_TRUE(engine.SubmitBlock(txs).ok());
    engine.Tick();
  }
  const engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted, uint64_t{kBlocks} * txs.size());
  EXPECT_EQ(report.sim.committed, report.sim.submitted);
  EXPECT_EQ(report.reallocations, uint64_t{kBlocks});
  EXPECT_EQ(report.fanned_out_ticks, uint64_t{kBlocks});

  // Sequence tag seq is transaction seq % |txs| of block seq / |txs|.
  std::vector<std::vector<uint32_t>> shards_of_seq(kBlocks * txs.size());
  for (const engine::PrepareEvent& prepare : engine.ExtractTrace().prepares) {
    ASSERT_LT(prepare.seq, shards_of_seq.size());
    EXPECT_EQ(prepare.block, prepare.seq / txs.size() + 1) << prepare.seq;
    shards_of_seq[prepare.seq].push_back(prepare.shard);
  }
  for (uint64_t seq = 0; seq < shards_of_seq.size(); ++seq) {
    const auto round = static_cast<uint32_t>(seq / txs.size());
    const size_t from = 2 * (seq % txs.size());
    std::vector<uint32_t> expected = {shard_of(from, round)};
    if (shard_of(from + 1, round) != expected[0]) {
      expected.push_back(shard_of(from + 1, round));
    }
    std::vector<uint32_t>& seen = shards_of_seq[seq];
    std::sort(seen.begin(), seen.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(seen, expected) << "seq " << seq << " in round " << round;
  }
}

TEST(EngineReallocTest, HybridAllocatorPipelineReallocatesPerEpoch) {
  workload::EthereumLikeConfig gen_config;
  gen_config.num_blocks = 60;
  gen_config.txs_per_block = 60;
  gen_config.num_accounts = 2'000;
  gen_config.num_communities = 20;
  gen_config.seed = 11;
  workload::EthereumLikeGenerator gen(gen_config);
  chain::Ledger ledger = gen.GenerateLedger(gen_config.num_blocks);

  const uint32_t k = 4;
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(1, k, 2.0);
  options.registry = &gen.registry();
  auto made = allocator::MakeAllocatorFromSpec(
      "txallo-hybrid:global-every=3", options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  ASSERT_NE(online, nullptr);

  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block =
      2.0 * static_cast<double>(gen_config.txs_per_block) / k;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);

  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 10;
  auto result =
      engine::RunReallocatedStream(ledger, online, &engine, pipeline);
  ASSERT_TRUE(result.ok());
  // 6 windows of 10 blocks; the last gets no trailing update.
  EXPECT_EQ(result->epochs, 5u);
  EXPECT_EQ(result->report.reallocations, 6u);  // Initial install + 5 epochs.
  EXPECT_EQ(result->report.sim.submitted, ledger.num_transactions());
  EXPECT_EQ(result->report.sim.committed, ledger.num_transactions());
  EXPECT_GT(result->accounts_moved, 0u);
  // Every boundary rebalanced and published in place; the trailing window
  // and the drain step after it get no update.
  ASSERT_GE(result->steps.size(), 6u);
  for (size_t step = 0; step < result->steps.size(); ++step) {
    EXPECT_EQ(result->steps[step].installed, step < 5) << step;
    if (step < 5) {
      EXPECT_EQ(result->steps[step].last_block, 10 * (step + 1));
    }
  }
  // The learned mapping should beat pure hash routing on cross-shard share.
  EXPECT_LT(result->report.sim.cross_shard_submitted,
            result->report.sim.submitted);
}

TEST(EngineReallocTest, PipelineRejectsZeroEpoch) {
  const uint32_t k = 2;
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(1, k, 2.0);
  auto made = allocator::MakeAllocator("hash", options);
  ASSERT_TRUE(made.ok());
  engine::EngineConfig config;
  config.num_shards = k;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);
  chain::Ledger ledger;
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 0;
  auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                             &engine, pipeline);
  EXPECT_FALSE(result.ok());
}

TEST(EngineReallocTest, PipelineEnforcesHashRoutingPrecondition) {
  // The documented hash_route_unassigned contract is now enforced: an
  // engine that would reject newly born accounts mid-epoch is refused up
  // front instead of failing on the first such SubmitBlock.
  const uint32_t k = 2;
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(1, k, 2.0);
  auto made = allocator::MakeAllocator("hash", options);
  ASSERT_TRUE(made.ok());
  engine::EngineConfig config;
  config.num_shards = k;  // hash_route_unassigned left false.
  engine::ParallelEngine engine(config, nullptr);
  chain::Ledger ledger;
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 10;
  auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                             &engine, pipeline);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("hash_route_unassigned"),
            std::string::npos);
}

}  // namespace
}  // namespace txallo
