#include "txallo/engine/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace txallo::engine {
namespace {

std::shared_ptr<alloc::Allocation> MakeAllocation(
    size_t accounts, uint32_t shards,
    const std::vector<alloc::ShardId>& assignment) {
  auto a = std::make_shared<alloc::Allocation>(accounts, shards);
  for (size_t i = 0; i < assignment.size(); ++i) {
    a->Assign(static_cast<chain::AccountId>(i), assignment[i]);
  }
  return a;
}

EngineConfig SmallConfig(uint32_t shards, uint32_t threads) {
  EngineConfig config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.work.eta = 2.0;
  config.work.capacity_per_block = 10.0;
  config.work.cross_shard_commit_rounds = 1;
  return config;
}

TEST(ParallelEngineTest, IntraBlockCommitsInOneTick) {
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(8, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EngineReport report = engine.Snapshot();
  EXPECT_EQ(report.sim.submitted, 8u);
  EXPECT_EQ(report.sim.committed, 8u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 0u);
  EXPECT_DOUBLE_EQ(report.sim.avg_latency_blocks, 1.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 1u);
  EXPECT_EQ(report.prepares_received, 8u);
}

TEST(ParallelEngineTest, CrossShardPaysEtaAndExtraRound) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  EngineConfig config = SmallConfig(2, 2);
  config.work.capacity_per_block = 100.0;
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 10u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 10u);
  EXPECT_EQ(report.cross_shard_committed, 10u);
  // Parts finish in block 1, commit lands one round later.
  EXPECT_DOUBLE_EQ(report.sim.avg_latency_blocks, 2.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 2u);
  // Two participants voted PREPARED per transaction.
  EXPECT_EQ(report.prepares_received, 20u);
}

TEST(ParallelEngineTest, RejectsUnassignedAccountByDefault) {
  auto alloc = MakeAllocation(2, 2, {0});  // Account 1 unassigned.
  ParallelEngine engine(SmallConfig(2, 1), alloc);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  Status st = engine.SubmitBlock(txs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ParallelEngineTest, HashFallbackRoutesUnassignedAccounts) {
  auto alloc = MakeAllocation(2, 2, {0});
  EngineConfig config = SmallConfig(2, 1);
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, alloc);
  // Account 1 hash-routes to shard 1 % 2 = 1 -> cross-shard with account 0.
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 1u);
}

TEST(ParallelEngineTest, MismatchedInitialSnapshotIsRejectedLoudly) {
  // A 4-shard snapshot handed to an 8-shard engine must not silently
  // mis-route (hash fallback would fold all traffic into 4 lanes); the
  // first SubmitBlock reports the mismatch, and a correct install recovers.
  EngineConfig config = SmallConfig(8, 1);
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, MakeAllocation(2, 4, {0, 1}));
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  Status st = engine.SubmitBlock(txs);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("snapshot rejected"), std::string::npos);
  ASSERT_TRUE(
      engine.InstallAllocation(MakeAllocation(2, 8, {0, 1})).ok());
  EXPECT_TRUE(engine.SubmitBlock(txs).ok());
  EXPECT_EQ(engine.DrainAndReport().sim.committed, 1u);
}

TEST(ParallelEngineTest, NoSnapshotFailsUntilInstalled) {
  ParallelEngine engine(SmallConfig(2, 1), nullptr);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  EXPECT_FALSE(engine.SubmitBlock(txs).ok());
  EXPECT_FALSE(engine.InstallAllocation(nullptr).ok());
  // Wrong shard count is rejected.
  EXPECT_FALSE(
      engine.InstallAllocation(MakeAllocation(2, 3, {0, 1})).ok());
  ASSERT_TRUE(
      engine.InstallAllocation(MakeAllocation(2, 2, {0, 1})).ok());
  EXPECT_TRUE(engine.SubmitBlock(txs).ok());
  // An empty block is fine too.
  EXPECT_TRUE(engine.SubmitBlock({}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.reallocations, 1u);
}

TEST(ParallelEngineTest, CapacityBacklogCarriesAcrossTicks) {
  // 25 intra txs into one shard at capacity 10: three blocks to drain.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(25, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EngineReport mid = engine.Snapshot();
  EXPECT_EQ(mid.sim.committed, 10u);
  EXPECT_DOUBLE_EQ(mid.sim.residual_work, 15.0);
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 25u);
  EXPECT_EQ(report.sim.blocks_elapsed, 3u);
  EXPECT_DOUBLE_EQ(report.sim.max_latency_blocks, 3.0);
  EXPECT_DOUBLE_EQ(report.sim.residual_work, 0.0);
}

TEST(ParallelEngineTest, IdleShardHalvesMeanUtilization) {
  // All work on shard 0 (10 intra txs = one full block of λ = 10); shard 1
  // idles, so the mean over shards is exactly 0.5.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EXPECT_NEAR(engine.Snapshot().sim.mean_utilization, 0.5, 1e-9);
}

TEST(ParallelEngineTest, SlowestShardGatesAThreeShardCommit) {
  // Shard 2 is pre-loaded with six intra txs (6 work at λ = 2, three
  // blocks); a transaction over shards 0, 1 and 2 then queues behind them
  // and commits only once its shard-2 part is done, plus the 2PC round.
  EngineConfig config = SmallConfig(3, 3);
  config.work.capacity_per_block = 2.0;
  ParallelEngine engine(config, MakeAllocation(3, 3, {2, 2, 2}));
  std::vector<chain::Transaction> filler(6, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(filler).ok());
  ASSERT_TRUE(engine.InstallAllocation(MakeAllocation(3, 3, {0, 1, 2})).ok());
  ASSERT_TRUE(engine.SubmitBlock({chain::Transaction({0, 1}, {2})}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 7u);
  EXPECT_EQ(report.cross_shard_committed, 1u);
  // Parts on shards 0 and 1 finish in block 1; shard 2's (η = 2 work)
  // finishes in block 4, and the commit round lands it in block 5.
  EXPECT_DOUBLE_EQ(report.sim.max_latency_blocks, 5.0);
}

TEST(ParallelEngineTest, ZeroCommitRoundsDropTheCrossShardRound) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  EngineConfig config = SmallConfig(2, 2);
  config.work.cross_shard_commit_rounds = 0;
  ParallelEngine engine(config, alloc);
  ASSERT_TRUE(engine.SubmitBlock({chain::Transaction::Simple(0, 1)}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.cross_shard_committed, 1u);
  EXPECT_DOUBLE_EQ(report.sim.avg_latency_blocks, 1.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 1u);
}

TEST(ParallelEngineTest, ThroughputSaturatesAtCapacity) {
  // Twice λ of intra work offered every block: committed throughput is λ,
  // not the demand.
  EngineConfig config = SmallConfig(1, 1);
  config.work.capacity_per_block = 5.0;
  ParallelEngine engine(config, MakeAllocation(2, 1, {0, 0}));
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  for (int block = 0; block < 20; ++block) {
    ASSERT_TRUE(engine.SubmitBlock(txs).ok());
    engine.Tick();
  }
  EXPECT_NEAR(engine.Snapshot().sim.throughput_per_block, 5.0, 0.5);
}

TEST(ParallelEngineTest, EverySubmittedTransactionCommits) {
  // Mixed cross/intra traffic at a capacity that is no multiple of η:
  // parts straddle block boundaries, yet the drain commits everything and
  // leaves no work behind.
  EngineConfig config = SmallConfig(2, 2);
  config.work.eta = 3.0;
  config.work.capacity_per_block = 4.0;
  ParallelEngine engine(config, MakeAllocation(4, 2, {0, 0, 1, 1}));
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 20; ++i) {
    txs.push_back(chain::Transaction::Simple(i % 2, 2 + (i % 2)));  // Cross.
    txs.push_back(chain::Transaction::Simple(0, 1));                // Intra.
  }
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted, 40u);
  EXPECT_EQ(report.sim.committed, report.sim.submitted);
  EXPECT_DOUBLE_EQ(report.sim.residual_work, 0.0);
}

TEST(ParallelEngineTest, ThreadCountDoesNotChangeResults) {
  // Logical-block semantics are thread-count invariant: run the same
  // workload under 1, 2, and 4 workers and demand identical reports.
  // EngineParityTest does the same on two generated seed workloads.
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(chain::Transaction::Simple(
        static_cast<chain::AccountId>(i % 6),
        static_cast<chain::AccountId>((i + 1) % 6)));
  }
  auto alloc = MakeAllocation(6, 4, {0, 0, 1, 2, 3, 3});
  EngineReport reference;
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelEngine engine(SmallConfig(4, threads), alloc);
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(engine.SubmitBlock(txs).ok());
      engine.Tick();
    }
    EngineReport report = engine.DrainAndReport();
    EXPECT_EQ(report.num_workers, threads);
    EXPECT_EQ(report.sim.committed, report.sim.submitted);
    EXPECT_EQ(report.cross_shard_committed, report.sim.cross_shard_submitted);
    if (threads == 1) {
      reference = report;
      continue;
    }
    EXPECT_EQ(report.sim.submitted, reference.sim.submitted);
    EXPECT_EQ(report.sim.cross_shard_submitted,
              reference.sim.cross_shard_submitted);
    EXPECT_EQ(report.sim.committed, reference.sim.committed);
    EXPECT_EQ(report.sim.blocks_elapsed, reference.sim.blocks_elapsed);
    EXPECT_NEAR(report.sim.avg_latency_blocks,
                reference.sim.avg_latency_blocks, 1e-9);
    EXPECT_DOUBLE_EQ(report.sim.max_latency_blocks,
                     reference.sim.max_latency_blocks);
    EXPECT_NEAR(report.sim.mean_utilization, reference.sim.mean_utilization,
                1e-12);
    EXPECT_DOUBLE_EQ(report.sim.residual_work, reference.sim.residual_work);
  }
  EXPECT_GT(reference.sim.cross_shard_submitted, 0u);
}

TEST(ParallelEngineTest, MoreThreadsThanShardsIsClamped) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  ParallelEngine engine(SmallConfig(2, 16), alloc);
  EXPECT_EQ(engine.num_workers(), 2u);
}

TEST(ParallelEngineTest, TwoHundredPartBlockCommitsInOneTick) {
  // 200 intra-shard parts on one shard, λ = 500: the whole block stages
  // before the tick and commits in it.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  EngineConfig config = SmallConfig(2, 2);
  config.work.capacity_per_block = 500.0;
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(200, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 200u);
  ASSERT_EQ(report.max_queue_depth.size(), 2u);
  EXPECT_EQ(report.sim.blocks_elapsed, 1u);
}

TEST(ParallelEngineTest, QueueDepthHighWaterIsReported) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  EngineConfig config = SmallConfig(2, 2);
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(6, chain::Transaction::Simple(0, 0));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  ASSERT_EQ(report.max_queue_depth.size(), 2u);
  EXPECT_EQ(report.max_queue_depth[0], 6u);
  EXPECT_EQ(report.max_queue_depth[1], 0u);
}

TEST(ParallelEngineTest, QueueDepthIsTheLargestSingleTickArrivalSet) {
  // The high-water counts arrivals staged between two ticks, not the total:
  // 3 then 1 (after a tick) peaks at 3, and the later 5 raises it to 5.
  auto alloc = MakeAllocation(2, 2, {0, 1});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  const chain::Transaction tx = chain::Transaction::Simple(0, 0);
  ASSERT_TRUE(engine.SubmitBlock({tx, tx, tx}).ok());
  engine.Tick();
  ASSERT_TRUE(engine.SubmitBlock({tx}).ok());
  EXPECT_EQ(engine.Snapshot().max_queue_depth[0], 3u);
  engine.Tick();
  ASSERT_TRUE(engine.SubmitBlock(std::vector<chain::Transaction>(5, tx)).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.max_queue_depth[0], 5u);
  EXPECT_EQ(report.sim.committed, 9u);
}

}  // namespace
}  // namespace txallo::engine
