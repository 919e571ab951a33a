#include "txallo/alloc/metrics.h"

#include <gtest/gtest.h>

namespace txallo::alloc {
namespace {

using chain::Transaction;

// Two shards; accounts 0,1 -> shard 0; accounts 2,3 -> shard 1.
Allocation TwoShardAllocation() {
  Allocation a(4, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);
  return a;
}

TEST(ShardsTouchedTest, IntraAndCross) {
  Allocation a = TwoShardAllocation();
  EXPECT_EQ(ShardsTouched(Transaction::Simple(0, 1), a), 1u);
  EXPECT_EQ(ShardsTouched(Transaction::Simple(0, 2), a), 2u);
  EXPECT_EQ(ShardsTouched(Transaction({0, 1}, {2, 3}), a), 2u);
  EXPECT_EQ(ShardsTouched(Transaction({0}, {0}), a), 1u);
}

TEST(ShardsTouchedTest, ManyDistinctShardsBeyondSmallBuffer) {
  // The fast path uses a 16-entry stack buffer; a transaction spanning 20
  // distinct shards must still report µ = 20.
  Allocation a(20, 20);
  std::vector<chain::AccountId> ids;
  for (chain::AccountId id = 0; id < 20; ++id) {
    a.Assign(id, id);
    ids.push_back(id);
  }
  const chain::AccountId first[] = {ids[0]};
  Transaction wide(ids, first);
  EXPECT_EQ(ShardsTouched(wide, a), 20u);
}

TEST(ShardsTouchedTest, UnassignedAccountIsZero) {
  Allocation a(3, 2);
  a.Assign(0, 0);
  EXPECT_EQ(ShardsTouched(Transaction::Simple(0, 2), a), 0u);
}

TEST(EvaluateTest, AllIntraPerfectSplit) {
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs{
      Transaction::Simple(0, 1), Transaction::Simple(0, 1),
      Transaction::Simple(2, 3), Transaction::Simple(2, 3)};
  AllocationParams params = AllocationParams::ForExperiment(4, 2, 2.0);
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->cross_shard_ratio, 0.0);
  EXPECT_DOUBLE_EQ(report->workload_stddev, 0.0);
  // Ideal case: Λ = |T|, normalized Λ/λ = k.
  EXPECT_DOUBLE_EQ(report->throughput, 4.0);
  EXPECT_DOUBLE_EQ(report->normalized_throughput, 2.0);
  EXPECT_DOUBLE_EQ(report->avg_latency_blocks, 1.0);
  EXPECT_DOUBLE_EQ(report->worst_latency_blocks, 1.0);
  EXPECT_DOUBLE_EQ(report->mean_shards_per_tx, 1.0);
}

TEST(EvaluateTest, CrossShardWorkloadUsesEta) {
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  AllocationParams params = AllocationParams::ForExperiment(1, 2, 3.0);
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->cross_shard_ratio, 1.0);
  // Each involved shard carries η = 3 workload.
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 3.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 3.0);
  EXPECT_EQ(report->cross_shard_transactions, 1u);
  EXPECT_DOUBLE_EQ(report->mean_shards_per_tx, 2.0);
}

TEST(EvaluateTest, CrossShardThroughputSplitsCredit) {
  // One cross-shard tx, capacity ample: each shard counts 1/µ so the system
  // counts the transaction exactly once (Eq. for Λ̂_i).
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs{Transaction::Simple(0, 2),
                               Transaction::Simple(0, 1)};
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = 100.0;  // Ample.
  params.epsilon = 0.0;
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->throughput, 2.0);
}

TEST(EvaluateTest, OverloadedShardClampsThroughput) {
  // 10 intra txs in shard 0, capacity 5: only half complete (Eq. 3).
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs;
  for (int i = 0; i < 10; ++i) txs.push_back(Transaction::Simple(0, 1));
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = 5.0;
  params.epsilon = 0.0;
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->throughput, 5.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 10.0);
  EXPECT_DOUBLE_EQ(report->normalized_workloads[0], 2.0);
  // σ̂ = 2 -> ζ = 1.5 for shard 0; shard 1 empty -> 1.0.
  EXPECT_NEAR(report->avg_latency_blocks, (1.5 + 1.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(report->worst_latency_blocks, 2.0);
}

TEST(EvaluateTest, UnassignedAccountFailsPrecondition) {
  Allocation a(4, 2);
  a.Assign(0, 0);
  std::vector<Transaction> txs{Transaction::Simple(0, 1)};
  AllocationParams params = AllocationParams::ForExperiment(1, 2, 2.0);
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluateTest, LedgerOverloadMatchesVectorOverload) {
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs{Transaction::Simple(0, 1),
                               Transaction::Simple(2, 3),
                               Transaction::Simple(1, 2)};
  chain::Ledger ledger;
  ASSERT_TRUE(ledger.Append(chain::Block(0, txs)).ok());
  AllocationParams params = AllocationParams::ForExperiment(3, 2, 2.0);
  auto from_vec = EvaluateAllocation(txs, a, params);
  auto from_ledger = EvaluateAllocation(ledger, a, params);
  ASSERT_TRUE(from_vec.ok());
  ASSERT_TRUE(from_ledger.ok());
  EXPECT_DOUBLE_EQ(from_vec->throughput, from_ledger->throughput);
  EXPECT_DOUBLE_EQ(from_vec->cross_shard_ratio,
                   from_ledger->cross_shard_ratio);
}

TEST(EvaluateTest, WorkloadBalanceMetric) {
  // Shard 0: two intra (σ=2); shard 1: none (σ=0) -> ρ = 1.
  Allocation a = TwoShardAllocation();
  std::vector<Transaction> txs{Transaction::Simple(0, 1),
                               Transaction::Simple(0, 1)};
  AllocationParams params = AllocationParams::ForExperiment(2, 2, 2.0);
  auto report = EvaluateAllocation(txs, a, params);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->workload_stddev, 1.0);
  EXPECT_DOUBLE_EQ(report->normalized_workload_stddev, 1.0);
}

}  // namespace
}  // namespace txallo::alloc
