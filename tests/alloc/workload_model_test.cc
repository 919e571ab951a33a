#include "txallo/alloc/metrics.h"

#include <gtest/gtest.h>

namespace txallo::alloc {
namespace {

using chain::Transaction;

Allocation TwoShards() {
  Allocation a(4, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);
  return a;
}

// k shards of capacity λ; the model under test supplies the costs.
AllocationParams Params(uint32_t k, double capacity) {
  AllocationParams p;
  p.num_shards = k;
  p.capacity = capacity;
  p.epsilon = 0.0;
  return p;
}

TEST(WorkloadModelTest, ValidateRejectsCheapCross) {
  WorkloadModel model = WorkloadModel::Uniform(2.0);
  model.cross_input = 0.5;
  EXPECT_FALSE(model.Validate().ok());
  model = WorkloadModel::Uniform(2.0);
  model.per_extra_account = -1.0;
  EXPECT_FALSE(model.Validate().ok());
}

TEST(WorkloadModelTest, UniformIsTheClosedFormExactly) {
  // Under Uniform(η) the shared evaluator must give σ_s = n_intra + η·n_cross
  // to the bit, with a non-dyadic η and λ, through both the params-only and
  // the model overload. Six cross parts per shard: a running sum of η in
  // transaction order would already differ from n·η in the last bit here.
  Allocation a = TwoShards();
  std::vector<Transaction> txs{
      Transaction::Simple(0, 1), Transaction::Simple(1, 0),
      Transaction({2}, {2}),     Transaction::Simple(0, 2),
      Transaction::Simple(1, 3), Transaction::Simple(0, 3),
      Transaction::Simple(1, 2), Transaction({0, 1}, {2, 3}),
      Transaction::Simple(3, 0)};
  AllocationParams params = Params(2, 2.7);
  params.eta = 2.3;
  // Shard 0: 2 intra + 6 cross parts; shard 1: 1 intra + 6 cross parts.
  const double sigma[2] = {2.0 + 2.3 * 6.0, 1.0 + 2.3 * 6.0};
  for (const auto& report :
       {EvaluateAllocation(txs, a, params),
        EvaluateAllocation(txs, a, params, WorkloadModel::Uniform(2.3))}) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->total_transactions, 9u);
    EXPECT_EQ(report->cross_shard_transactions, 6u);
    EXPECT_EQ(report->cross_shard_ratio, 6.0 / 9.0);
    EXPECT_EQ(report->mean_shards_per_tx, 15.0 / 9.0);
    for (uint32_t s = 0; s < 2; ++s) {
      EXPECT_EQ(report->shard_workloads[s], sigma[s]);
      EXPECT_EQ(report->normalized_workloads[s], sigma[s] / 2.7);
    }
  }
}

TEST(WorkloadModelTest, LedgerRunsRoleAwareModelWithSurcharge) {
  // Inputs {0}, outputs {1, 2, 3}: shard 0 holds the input (and output 1),
  // shard 1 only outputs; 4 accounts pay 2 extra each in both shards.
  Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction({0}, {1, 2, 3}),
                               Transaction::Simple(2, 3)};
  chain::Ledger ledger;
  ASSERT_TRUE(ledger.Append(chain::Block(0, txs)).ok());
  WorkloadModel model{1.0, /*cross_input=*/3.0, /*cross_output=*/1.5,
                      /*per_extra_account=*/0.25};
  auto from_ledger = EvaluateAllocation(ledger, a, Params(2, 100.0), model);
  auto from_vector = EvaluateAllocation(txs, a, Params(2, 100.0), model);
  ASSERT_TRUE(from_ledger.ok()) << from_ledger.status().ToString();
  ASSERT_TRUE(from_vector.ok());
  EXPECT_EQ(from_ledger->shard_workloads[0], 3.0 + 0.5);
  EXPECT_EQ(from_ledger->shard_workloads[1], 1.5 + 0.5 + 1.0);
  EXPECT_EQ(from_ledger->cross_shard_transactions, 1u);
  EXPECT_EQ(from_ledger->shard_workloads, from_vector->shard_workloads);
  EXPECT_EQ(from_ledger->throughput, from_vector->throughput);
}

TEST(WorkloadModelTest, InputShardPaysMoreThanOutputShard) {
  // tx: input in shard 0, output in shard 1.
  Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  WorkloadModel model{1.0, /*cross_input=*/5.0, /*cross_output=*/2.0, 0.0};
  auto report = EvaluateAllocation(txs, a, Params(2, 100.0), model);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 5.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 2.0);
}

TEST(WorkloadModelTest, ShardWithBothRolesCountsAsInput) {
  // Inputs {0}, outputs {1, 2}: shard 0 holds input 0 and output 1.
  Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction({0}, {1, 2})};
  WorkloadModel model{1.0, 4.0, 2.0, 0.0};
  auto report = EvaluateAllocation(txs, a, Params(2, 100.0), model);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 4.0);  // Input role wins.
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 2.0);
}

TEST(WorkloadModelTest, PerExtraAccountSurcharge) {
  Allocation a = TwoShards();
  // 4 distinct accounts, intra would be impossible; make it intra-shard:
  Allocation same(4, 2);
  for (chain::AccountId id = 0; id < 4; ++id) same.Assign(id, 0);
  std::vector<Transaction> txs{Transaction({0, 1}, {2, 3})};
  WorkloadModel model{1.0, 2.0, 2.0, /*per_extra_account=*/0.5};
  auto report = EvaluateAllocation(txs, same, Params(2, 100.0), model);
  ASSERT_TRUE(report.ok());
  // Intra 1 + surcharge 2 extra accounts * 0.5 = 2.0.
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 2.0);
}

TEST(WorkloadModelTest, SurchargeAppliesPerInvolvedShard) {
  Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction({0, 1}, {2, 3})};
  WorkloadModel model{1.0, 2.0, 2.0, /*per_extra_account=*/1.0};
  auto report = EvaluateAllocation(txs, a, Params(2, 100.0), model);
  ASSERT_TRUE(report.ok());
  // Shard 0: input role 2 + surcharge 2; shard 1: output role 2 + 2.
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 4.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 4.0);
}

TEST(WorkloadModelTest, ThroughputCreditUnchangedByRoles) {
  // Role asymmetry changes σ but never the 1/µ completion credit.
  Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2),
                               Transaction::Simple(1, 3)};
  WorkloadModel skew{1.0, 10.0, 2.0, 0.0};
  auto report = EvaluateAllocation(txs, a, Params(2, 1000.0), skew);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->throughput, 2.0);
}

TEST(WorkloadModelTest, UnassignedAccountFails) {
  Allocation partial(3, 2);
  partial.Assign(0, 0);
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  auto report = EvaluateAllocation(txs, partial, Params(2, 10.0),
                                   WorkloadModel::Uniform(2.0));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace txallo::alloc
