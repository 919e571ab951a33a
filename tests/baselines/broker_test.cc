#include "txallo/baselines/broker.h"

#include <gtest/gtest.h>

#include "txallo/graph/builder.h"

namespace txallo::baselines {
namespace {

using chain::Transaction;

alloc::AllocationParams Params(uint32_t k, double eta, double capacity) {
  alloc::AllocationParams p;
  p.num_shards = k;
  p.eta = eta;
  p.capacity = capacity;
  p.epsilon = 0.0;
  return p;
}

alloc::Allocation TwoShards() {
  alloc::Allocation a(4, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);
  return a;
}

TEST(BrokerSelectTest, PicksMostActiveAccounts) {
  graph::TransactionGraph g;
  for (graph::NodeId v = 1; v <= 5; ++v) g.AddEdge(0, v, 10.0);  // Hub 0.
  g.AddEdge(1, 2, 5.0);
  g.Consolidate();
  auto brokers = SelectBrokersByActivity(g, 2);
  ASSERT_EQ(brokers.size(), 2u);
  EXPECT_EQ(brokers[0], 0u);  // Hub: strength 50.
  EXPECT_EQ(brokers[1], 1u);  // Strength 15.
}

TEST(BrokerSelectTest, RequestMoreThanNodesClamps) {
  graph::TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.Consolidate();
  auto brokers = SelectBrokersByActivity(g, 10);
  EXPECT_EQ(brokers.size(), 2u);
}

TEST(BrokerEvalTest, BrokerCounterpartyMakesTransactionIntra) {
  // Account 2 (shard 1) is a broker; tx 0 -> 2 stays intra in shard 0.
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  auto report = EvaluateWithBrokers(txs, a, Params(2, 2.0, 100.0), {2});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->cross_shard_ratio, 0.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 1.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 0.0);
}

TEST(BrokerEvalTest, NonBrokerCrossIsBrokeredAtIntraPrice) {
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  BrokerOptions options;
  options.broker_cross_cost = 1.2;
  options.broker_latency_blocks = 1.0;
  auto report =
      EvaluateWithBrokers(txs, a, Params(2, 5.0, 100.0), {}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->cross_shard_ratio, 1.0);
  // Workload 1.2 per involved shard — NOT η=5.
  EXPECT_DOUBLE_EQ(report->shard_workloads[0], 1.2);
  EXPECT_DOUBLE_EQ(report->shard_workloads[1], 1.2);
  // Latency: queueing 1 block + broker hop 1 block amortized over 1 tx.
  EXPECT_DOUBLE_EQ(report->avg_latency_blocks, 2.0);
}

TEST(BrokerEvalTest, AllBrokerTransactionCostsOneUnit) {
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(1, 2)};
  auto report = EvaluateWithBrokers(txs, a, Params(2, 2.0, 100.0), {1, 2});
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->cross_shard_ratio, 0.0);
  EXPECT_DOUBLE_EQ(report->shard_workloads[0] + report->shard_workloads[1],
                   1.0);
}

TEST(BrokerEvalTest, ThroughputCreditSplitsAcrossBrokeredShards) {
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2),
                               Transaction::Simple(1, 3)};
  auto report = EvaluateWithBrokers(txs, a, Params(2, 2.0, 100.0), {});
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->throughput, 2.0);  // Each counted once in total.
}

TEST(BrokerEvalTest, BrokersReduceWorkloadVsPlainEvaluation) {
  // Hub-heavy traffic: making the hub a broker removes its cross-shard η
  // penalty entirely.
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs;
  for (int i = 0; i < 10; ++i) {
    txs.push_back(Transaction::Simple(0, 2));  // Cross without brokers.
  }
  alloc::AllocationParams params = Params(2, 4.0, 100.0);
  auto plain = alloc::EvaluateAllocation(txs, a, params);
  auto with_broker = EvaluateWithBrokers(txs, a, params, {2});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_broker.ok());
  double plain_total = 0.0, broker_total = 0.0;
  for (double s : plain->shard_workloads) plain_total += s;
  for (double s : with_broker->shard_workloads) broker_total += s;
  EXPECT_LT(broker_total, plain_total / 2.0);
}

TEST(BrokerEvalTest, LedgerAllBrokerTransactionLandsIntraOnShardZero) {
  // Through the shared evaluator: an all-broker transaction pins no shard
  // and is priced intra on shard 0; a non-broker cross pair is brokered.
  alloc::Allocation a = TwoShards();
  chain::Ledger ledger;
  ASSERT_TRUE(ledger
                  .Append(chain::Block(0, {Transaction::Simple(1, 2),
                                           Transaction::Simple(0, 3)}))
                  .ok());
  BrokerOptions options;
  options.broker_cross_cost = 1.5;
  options.broker_latency_blocks = 2.0;
  auto report =
      EvaluateWithBrokers(ledger, a, Params(2, 2.0, 100.0), {1, 2}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cross_shard_transactions, 1u);
  EXPECT_EQ(report->shard_workloads[0], 1.0 + 1.5);
  EXPECT_EQ(report->shard_workloads[1], 1.5);
  EXPECT_EQ(report->mean_shards_per_tx, 1.5);
  // Queueing 1 block + the relay hop on half the transactions.
  EXPECT_EQ(report->avg_latency_blocks, 1.0 + 2.0 / 2.0);
  EXPECT_EQ(report->worst_latency_blocks, 1.0 + 2.0);
}

TEST(BrokerEvalTest, CrossCostBelowIntraIsAccepted) {
  // A broker split may be cheaper than an intra transaction; only a
  // negative cost is rejected.
  alloc::Allocation a = TwoShards();
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  BrokerOptions options;
  options.broker_cross_cost = 0.5;
  auto report = EvaluateWithBrokers(txs, a, Params(2, 2.0, 100.0), {}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_workloads[0], 0.5);
  EXPECT_EQ(report->shard_workloads[1], 0.5);
  options.broker_cross_cost = -0.1;
  EXPECT_EQ(EvaluateWithBrokers(txs, a, Params(2, 2.0, 100.0), {}, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BrokerEvalTest, UnassignedNonBrokerFails) {
  alloc::Allocation partial(3, 2);
  partial.Assign(0, 0);
  std::vector<Transaction> txs{Transaction::Simple(0, 2)};
  auto report = EvaluateWithBrokers(txs, partial, Params(2, 2.0, 10.0), {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace txallo::baselines
