// The §III-B shard-model cases run on ParallelEngine: an intra-shard
// transaction commits in its own block, a cross-shard one pays the extra
// commit round, capacity λ queues the surplus, an unassigned account is
// refused, and re-routing between blocks loses nothing.
#include "txallo/engine/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace txallo::engine {
namespace {

using chain::Transaction;

std::shared_ptr<alloc::Allocation> SplitAllocation() {
  auto a = std::make_shared<alloc::Allocation>(4, 2);
  a->Assign(0, 0);
  a->Assign(1, 0);
  a->Assign(2, 1);
  a->Assign(3, 1);
  return a;
}

EngineConfig Config(uint32_t shards, double eta, double capacity) {
  EngineConfig c;
  c.num_shards = shards;
  c.num_threads = 2;
  c.work.eta = eta;
  c.work.capacity_per_block = capacity;
  return c;
}

TEST(ShardSimTest, IntraTransactionCommitsInOneBlock) {
  ParallelEngine engine(Config(2, 2.0, 10.0), SplitAllocation());
  ASSERT_TRUE(engine.SubmitBlock({Transaction::Simple(0, 1)}).ok());
  engine.Tick();
  SimReport report = engine.Snapshot().sim;
  EXPECT_EQ(report.committed, 1u);
  EXPECT_DOUBLE_EQ(report.avg_latency_blocks, 1.0);
}

TEST(ShardSimTest, CrossShardPaysExtraRound) {
  ParallelEngine engine(Config(2, 2.0, 10.0), SplitAllocation());
  ASSERT_TRUE(engine.SubmitBlock({Transaction::Simple(0, 2)}).ok());
  SimReport report = engine.DrainAndReport().sim;
  EXPECT_EQ(report.committed, 1u);
  EXPECT_EQ(report.cross_shard_submitted, 1u);
  // Both parts processed in block 1, commit in block 2.
  EXPECT_DOUBLE_EQ(report.avg_latency_blocks, 2.0);
}

TEST(ShardSimTest, OverloadedShardQueuesWork) {
  ParallelEngine engine(Config(2, 2.0, 2.0), SplitAllocation());  // Tiny λ.
  std::vector<Transaction> txs(10, Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  SimReport mid = engine.Snapshot().sim;
  EXPECT_EQ(mid.committed, 2u);  // Capacity 2 per block.
  // All of it queues on shard 0: 10 units offered, 2 done.
  EXPECT_DOUBLE_EQ(mid.residual_work, 8.0);
  SimReport done = engine.DrainAndReport().sim;
  EXPECT_EQ(done.committed, 10u);
  // Last transactions waited ~5 blocks.
  EXPECT_GE(done.max_latency_blocks, 5.0);
}

TEST(ShardSimTest, RejectsUnassignedAccounts) {
  auto partial = std::make_shared<alloc::Allocation>(4, 2);
  partial->Assign(0, 0);
  ParallelEngine engine(Config(2, 2.0, 10.0), partial);
  Status st = engine.SubmitBlock({Transaction::Simple(0, 3)});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardSimTest, ReallocationBetweenBlocksLosesNothing) {
  // Switching mappings mid-run (a reconfiguration) must not lose or
  // double-commit transactions already in flight.
  ParallelEngine engine(Config(2, 2.0, 3.0), SplitAllocation());
  auto after = std::make_shared<alloc::Allocation>(4, 2);
  after->Assign(0, 1);
  after->Assign(1, 1);
  after->Assign(2, 0);
  after->Assign(3, 0);
  std::vector<Transaction> txs(10, Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  ASSERT_TRUE(engine.InstallAllocation(after).ok());  // New mapping.
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  SimReport report = engine.DrainAndReport().sim;
  EXPECT_EQ(report.submitted, 20u);
  EXPECT_EQ(report.committed, 20u);
}

}  // namespace
}  // namespace txallo::engine
