#include "txallo/core/global.h"

#include <gtest/gtest.h>

#include <numeric>

#include "txallo/alloc/metrics.h"
#include "txallo/graph/builder.h"
#include "txallo/common/rng.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::core {
namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using graph::NodeId;
using graph::TransactionGraph;

std::vector<NodeId> IdentityOrder(size_t n) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// Two 5-cliques bridged weakly — G-TxAllo with k=2 must split them apart.
TransactionGraph TwoCliqueGraph() {
  TransactionGraph g;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) g.AddEdge(u, v, 1.0);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) g.AddEdge(u, v, 1.0);
  }
  g.AddEdge(0, 5, 0.1);
  g.Consolidate();
  return g;
}

TEST(GlobalTxAlloTest, SeparatesTwoCliques) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = g.TotalWeight() / 2.0;
  params.epsilon = 1e-9;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  ASSERT_TRUE(a.Validate().ok());
  // Each clique must be wholly inside one shard.
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(a.shard_of(v), a.shard_of(0));
  for (NodeId v = 6; v < 10; ++v) EXPECT_EQ(a.shard_of(v), a.shard_of(5));
  EXPECT_NE(a.shard_of(0), a.shard_of(5));
}

TEST(GlobalTxAlloTest, RunInfoIsFilled) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = g.TotalWeight() / 2.0;
  params.epsilon = 1e-9;
  GlobalRunInfo info;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params, {}, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(info.louvain_communities, 0u);
  EXPECT_LE(info.louvain_communities, 10u);
  EXPECT_GE(info.sweeps, 1);
  EXPECT_LE(info.sweeps, GlobalOptions{}.max_sweeps);
  EXPECT_GE(info.final_throughput, info.initial_throughput - 1e-9);
  // Structure, not speed: each phase is timed inside the total, so on a
  // monotonic clock no phase can exceed it (a 10-node run may read 0).
  for (const double phase :
       {info.louvain_seconds, info.init_seconds, info.optimize_seconds}) {
    EXPECT_GE(phase, 0.0);
    EXPECT_LE(phase, info.total_seconds);
  }
}

TEST(GlobalTxAlloTest, SingleShardPutsEverythingTogether) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 1;
  params.eta = 2.0;
  params.capacity = g.TotalWeight();
  params.epsilon = 1e-9;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params);
  ASSERT_TRUE(result.ok());
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(result->shard_of(v), 0u);
}

TEST(GlobalTxAlloTest, RejectsUnconsolidatedGraph) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);  // Not consolidated.
  AllocationParams params = AllocationParams::ForExperiment(1, 2, 2.0);
  auto result = RunGlobalTxAllo(g, IdentityOrder(2), params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GlobalTxAlloTest, RejectsBadNodeOrder) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params = AllocationParams::ForExperiment(10, 2, 2.0);
  auto result = RunGlobalTxAllo(g, IdentityOrder(3), params);  // Wrong size.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GlobalTxAlloTest, RejectsInvalidParams) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 0;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params);
  ASSERT_FALSE(result.ok());
}

TEST(GlobalTxAlloTest, IsolatedNodesGetAssigned) {
  TransactionGraph g = TwoCliqueGraph();
  g.EnsureNodeCount(15);  // Nodes 10-14 isolated.
  g.Consolidate();
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = g.TotalWeight() / 2.0;
  params.epsilon = 1e-9;
  auto result = RunGlobalTxAllo(g, IdentityOrder(15), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Validate().ok());
}

TEST(GlobalTxAlloTest, MoreShardsThanLouvainCommunitiesStillValid) {
  // l < k: the paper pads with empty shards; the mapping must stay valid.
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 7;  // Louvain will find ~2 communities.
  params.eta = 2.0;
  params.capacity = g.TotalWeight() / 7.0;
  params.epsilon = 1e-9;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Validate().ok());
}

TEST(GlobalTxAlloTest, HashInitAblationProducesValidAllocation) {
  TransactionGraph g = TwoCliqueGraph();
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  params.capacity = g.TotalWeight() / 2.0;
  params.epsilon = 1e-9;
  GlobalOptions options;
  options.hash_initialization = true;
  auto result = RunGlobalTxAllo(g, IdentityOrder(10), params, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Validate().ok());
}

TEST(GlobalTxAlloTest, FullSearchAblationMatchesOrBeatsCandidates) {
  workload::EthereumLikeConfig config;
  config.num_blocks = 40;
  config.txs_per_block = 100;
  config.num_accounts = 1'000;
  config.num_communities = 20;
  workload::EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  TransactionGraph g = graph::BuildTransactionGraph(ledger);
  g.EnsureNodeCount(gen.registry().size());
  g.Consolidate();
  AllocationParams params = AllocationParams::ForExperiment(
      ledger.num_transactions(), 4, 2.0);

  GlobalOptions candidates;
  GlobalOptions full;
  full.search_all_communities = true;
  auto order = IdentityOrder(g.num_nodes());
  GlobalRunInfo info_c, info_f;
  auto rc = RunGlobalTxAllo(g, order, params, candidates, &info_c);
  auto rf = RunGlobalTxAllo(g, order, params, full, &info_f);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rf.ok());
  // The candidate restriction (Eq. 9) must cost almost nothing in Λ.
  EXPECT_NEAR(info_c.final_throughput, info_f.final_throughput,
              0.02 * info_f.final_throughput);
}

TEST(GlobalTxAlloTest, ThroughputNeverDecreasesAcrossPhases) {
  workload::EthereumLikeConfig config;
  config.num_blocks = 30;
  config.txs_per_block = 80;
  config.num_accounts = 600;
  config.num_communities = 12;
  workload::EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  TransactionGraph g = graph::BuildTransactionGraph(ledger);
  g.EnsureNodeCount(gen.registry().size());
  g.Consolidate();
  for (uint32_t k : {2u, 4u, 8u}) {
    AllocationParams params =
        AllocationParams::ForExperiment(ledger.num_transactions(), k, 3.0);
    GlobalRunInfo info;
    auto result =
        RunGlobalTxAllo(g, IdentityOrder(g.num_nodes()), params, {}, &info);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(info.final_throughput, info.initial_throughput - params.epsilon)
        << "k=" << k;
  }
}

// Property sweep: OptimizeSweeps never decreases the model throughput,
// starting from arbitrary (hash) allocations, across (k, eta, seed).
class SweepMonotonicity
    : public ::testing::TestWithParam<std::tuple<uint32_t, double, uint64_t>> {
};

TEST_P(SweepMonotonicity, ThroughputNeverDecreases) {
  auto [k, eta, seed] = GetParam();
  workload::EthereumLikeConfig config;
  config.num_blocks = 25;
  config.txs_per_block = 80;
  config.num_accounts = 700;
  config.num_communities = 14;
  config.seed = seed;
  workload::EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(config.num_blocks);
  TransactionGraph g = graph::BuildTransactionGraph(ledger);
  g.EnsureNodeCount(gen.registry().size());
  g.Consolidate();

  AllocationParams params =
      AllocationParams::ForExperiment(ledger.num_transactions(), k, eta);
  Allocation allocation(g.num_nodes(), k);
  Rng rng(seed);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    allocation.Assign(static_cast<NodeId>(v),
                      static_cast<alloc::ShardId>(rng.NextBounded(k)));
  }
  alloc::CommunityState state =
      alloc::ComputeCommunityState(g, allocation, params);
  const double before = state.TotalThroughput();
  auto order = IdentityOrder(g.num_nodes());
  OptimizeSweeps(g, order, params, {}, &allocation, &state);
  EXPECT_GE(state.TotalThroughput(), before - 1e-9)
      << "k=" << k << " eta=" << eta << " seed=" << seed;
  // Running state must still agree with the from-scratch oracle.
  alloc::CommunityState oracle =
      alloc::ComputeCommunityState(g, allocation, params);
  for (uint32_t c = 0; c < k; ++c) {
    EXPECT_NEAR(state.sigma[c], oracle.sigma[c],
                1e-6 * (1.0 + oracle.sigma[c]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SweepMonotonicity,
    ::testing::Combine(::testing::Values(2u, 6u, 12u),
                       ::testing::Values(2.0, 8.0),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace txallo::core
