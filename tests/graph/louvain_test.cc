#include "txallo/graph/louvain.h"

#include <gtest/gtest.h>

#include <numeric>

#include "txallo/common/rng.h"
#include "txallo/graph/builder.h"

namespace txallo::graph {
namespace {

std::vector<NodeId> IdentityOrder(size_t n) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// Two dense cliques joined by one weak edge: the canonical community
// structure every community detector must find.
TransactionGraph TwoCliques() {
  TransactionGraph g;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) g.AddEdge(u, v, 1.0);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) g.AddEdge(u, v, 1.0);
  }
  g.AddEdge(4, 5, 0.1);
  g.Consolidate();
  return g;
}

TEST(LouvainTest, FindsTwoCliques) {
  TransactionGraph g = TwoCliques();
  LouvainResult result = RunLouvain(g, IdentityOrder(g.num_nodes()));
  EXPECT_EQ(result.num_communities, 2u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(result.community[v], result.community[0]);
  }
  for (NodeId v = 6; v < 10; ++v) {
    EXPECT_EQ(result.community[v], result.community[5]);
  }
  EXPECT_NE(result.community[0], result.community[5]);
  EXPECT_GT(Modularity(g, result.community), 0.3);
}

TEST(LouvainTest, DeterministicAcrossRuns) {
  TransactionGraph g = TwoCliques();
  auto order = IdentityOrder(g.num_nodes());
  LouvainResult a = RunLouvain(g, order);
  LouvainResult b = RunLouvain(g, order);
  EXPECT_EQ(a.community, b.community);
  EXPECT_DOUBLE_EQ(Modularity(g, a.community), Modularity(g, b.community));
}

TEST(LouvainTest, EmptyGraph) {
  TransactionGraph g;
  g.Consolidate();
  LouvainResult result = RunLouvain(g, {});
  EXPECT_EQ(result.num_communities, 0u);
}

TEST(LouvainTest, SingletonNodesStaySeparate) {
  TransactionGraph g;
  g.EnsureNodeCount(4);  // No edges at all.
  g.Consolidate();
  LouvainResult result = RunLouvain(g, IdentityOrder(4));
  EXPECT_EQ(result.num_communities, 4u);
}

TEST(LouvainTest, ImprovesModularityOverSingletons) {
  // Random community-structured graph: Louvain must beat the trivial
  // all-singletons partition (Q = negative or ~0).
  TransactionGraph g;
  Rng rng(55);
  constexpr int kCommunities = 8;
  constexpr int kPerCommunity = 20;
  const int n = kCommunities * kPerCommunity;
  for (int c = 0; c < kCommunities; ++c) {
    for (int i = 0; i < 60; ++i) {
      NodeId u = static_cast<NodeId>(c * kPerCommunity +
                                     rng.NextBounded(kPerCommunity));
      NodeId v = static_cast<NodeId>(c * kPerCommunity +
                                     rng.NextBounded(kPerCommunity));
      if (u != v) g.AddEdge(u, v, 1.0);
    }
  }
  for (int i = 0; i < 40; ++i) {  // Sparse inter-community noise.
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v) g.AddEdge(u, v, 0.2);
  }
  g.EnsureNodeCount(n);
  g.Consolidate();

  std::vector<uint32_t> singletons(n);
  std::iota(singletons.begin(), singletons.end(), 0);
  const double q_singletons = Modularity(g, singletons);

  LouvainResult result = RunLouvain(g, IdentityOrder(n));
  EXPECT_GT(Modularity(g, result.community), q_singletons);
  EXPECT_GT(Modularity(g, result.community), 0.4);
  EXPECT_LE(result.num_communities, static_cast<uint32_t>(n));
}

TEST(LouvainTest, ModularityOfOneCommunityIsNearZero) {
  TransactionGraph g = TwoCliques();
  std::vector<uint32_t> one(g.num_nodes(), 0);
  // Q of the all-in-one partition is exactly 1*in/m - (1)^2 = 0.
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(LouvainTest, SelfLoopsDoNotBreakDetection) {
  // Moderate self-loops must not break detection. (Very heavy self-loops
  // legitimately suppress merging under standard modularity — they raise a
  // node's degree without adding inter-node connectivity.)
  TransactionGraph g;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.AddEdge(u, v, 1.0);
    g.AddSelfLoop(u, 0.5);
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) g.AddEdge(u, v, 1.0);
  }
  g.AddEdge(0, 4, 0.05);
  g.Consolidate();
  LouvainResult result = RunLouvain(g, IdentityOrder(8));
  EXPECT_EQ(result.community[0], result.community[3]);
  EXPECT_EQ(result.community[4], result.community[7]);
  EXPECT_NE(result.community[0], result.community[4]);
}

TEST(LouvainTest, CommunityIdsAreCompact) {
  TransactionGraph g = TwoCliques();
  LouvainResult result = RunLouvain(g, IdentityOrder(g.num_nodes()));
  for (uint32_t c : result.community) {
    EXPECT_LT(c, result.num_communities);
  }
  // First-appearance ordering: node 0's community is 0.
  EXPECT_EQ(result.community[0], 0u);
}

TEST(LouvainTest, ManyConsolidationsAgreeWithOne) {
  // A graph built over many consolidations reads and partitions
  // identically to one built in one. The weights are dyadic, so every sum
  // is exact whatever the consolidation points.
  TransactionGraph g;
  TransactionGraph one;
  Rng rng(7);
  auto add_random_edges = [&](int count) {
    for (int i = 0; i < count; ++i) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(60));
      NodeId v = static_cast<NodeId>(rng.NextBounded(60));
      const double w = 0.25 * static_cast<double>(1 + i % 4);
      g.AddEdge(u, v, w);
      one.AddEdge(u, v, w);
    }
  };
  for (int batch = 0; batch < 6; ++batch) {
    add_random_edges(100);
    g.Consolidate();
  }
  add_random_edges(12);
  g.AddSelfLoop(3, 1.5);
  one.AddSelfLoop(3, 1.5);
  g.Consolidate();
  one.Consolidate();
  ASSERT_EQ(g.num_edges(), one.num_edges());
  ASSERT_EQ(g.TotalWeight(), one.TotalWeight());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(g.Strength(v), one.Strength(v));
    ASSERT_EQ(g.SelfLoop(v), one.SelfLoop(v));
    ASSERT_EQ(g.Neighbors(v).size(), one.Neighbors(v).size());
    for (const Neighbor& nb : g.Neighbors(v)) {
      ASSERT_EQ(nb.weight, one.EdgeWeight(v, nb.node));
    }
  }
  const auto order = IdentityOrder(g.num_nodes());
  const LouvainResult overlaid = RunLouvain(g, order);
  const LouvainResult folded = RunLouvain(one, order);
  EXPECT_EQ(overlaid.community, folded.community);
  EXPECT_EQ(Modularity(g, overlaid.community),
            Modularity(one, folded.community));
  EXPECT_EQ(overlaid.levels, folded.levels);
}

TEST(LouvainTest, ResolutionParameterChangesGranularity) {
  // Higher resolution favors smaller communities.
  TransactionGraph g;
  Rng rng(99);
  for (int c = 0; c < 6; ++c) {
    for (int i = 0; i < 30; ++i) {
      NodeId u = static_cast<NodeId>(c * 10 + rng.NextBounded(10));
      NodeId v = static_cast<NodeId>(c * 10 + rng.NextBounded(10));
      if (u != v) g.AddEdge(u, v, 1.0);
    }
    if (c > 0) {
      g.AddEdge(static_cast<NodeId>(c * 10),
                static_cast<NodeId>((c - 1) * 10), 0.8);
    }
  }
  g.Consolidate();
  LouvainOptions low, high;
  low.resolution = 0.2;
  high.resolution = 3.0;
  auto order = IdentityOrder(g.num_nodes());
  LouvainResult coarse = RunLouvain(g, order, low);
  LouvainResult fine = RunLouvain(g, order, high);
  EXPECT_LE(coarse.num_communities, fine.num_communities);
}

}  // namespace
}  // namespace txallo::graph
