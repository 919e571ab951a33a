// Online reallocation: copy-on-write snapshot swaps racing live traffic,
// and the allocator-driven epoch pipeline. The concurrent-install test is
// the one the TSan CI job exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
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
  EXPECT_GE(report.realloc_pause_seconds, 0.0);
}

TEST(EngineReallocTest, ConcurrentInstallsNeverStopTheWorkers) {
  // An allocator thread hammering InstallAllocation while the driver
  // submits and ticks: no data race (TSan), no lost traffic, and every
  // snapshot routes consistently because routing reads one shared_ptr.
  // The synthetic spin puts every tick's 64 parts above the pool's inline
  // threshold, so the installs race ticks that run on the helper too.
  const uint32_t k = 4;
  const size_t accounts = 64;
  auto initial = std::make_shared<alloc::Allocation>(accounts, k);
  for (size_t a = 0; a < accounts; ++a) {
    initial->Assign(static_cast<chain::AccountId>(a),
                    static_cast<alloc::ShardId>(a % k));
  }
  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block = 1000.0;
  config.spin_iterations_per_unit = 2'048;
  engine::ParallelEngine engine(config, initial);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> installs{0};
  std::thread allocator([&] {
    uint64_t round = 0;
    while (!stop.load()) {
      auto next = std::make_shared<alloc::Allocation>(accounts, k);
      for (size_t a = 0; a < accounts; ++a) {
        next->Assign(static_cast<chain::AccountId>(a),
                     static_cast<alloc::ShardId>((a + round) % k));
      }
      ASSERT_TRUE(engine.InstallAllocation(std::move(next)).ok());
      installs.fetch_add(1);
      ++round;
      std::this_thread::yield();
    }
  });

  std::vector<chain::Transaction> txs;
  for (size_t a = 0; a + 1 < accounts; a += 2) {
    txs.push_back(chain::Transaction::Simple(
        static_cast<chain::AccountId>(a),
        static_cast<chain::AccountId>(a + 1)));
  }
  // The ticks start once the installer is running, so they overlap its
  // installs however fast they are.
  while (installs.load() == 0) std::this_thread::yield();
  constexpr int kBlocks = 50;
  for (int b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(engine.SubmitBlock(txs).ok());
    engine.Tick();
  }
  stop.store(true);
  allocator.join();
  engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted,
            static_cast<uint64_t>(kBlocks) * txs.size());
  EXPECT_EQ(report.sim.committed, report.sim.submitted);
  EXPECT_EQ(report.reallocations, installs.load());
  EXPECT_GE(report.reallocations, 1u);
  EXPECT_EQ(report.fanned_out_ticks, static_cast<uint64_t>(kBlocks));
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
  EXPECT_GT(result->alloc_seconds, 0.0);
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
