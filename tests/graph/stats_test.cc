#include "txallo/graph/stats.h"

#include <gtest/gtest.h>

#include "txallo/graph/builder.h"

namespace txallo::graph {
namespace {

TEST(GraphStatsTest, EmptyGraph) {
  TransactionGraph g;
  g.Consolidate();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.num_edges, 0u);
}

TEST(GraphStatsTest, HubShareIdentifiesMostActiveNode) {
  TransactionGraph g;
  // Node 0 is a hub with 8 unit edges; nodes 9-10 share one edge.
  for (NodeId v = 1; v <= 8; ++v) g.AddEdge(0, v, 1.0);
  g.AddEdge(9, 10, 1.0);
  g.Consolidate();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.max_strength_node, 0u);
  EXPECT_NEAR(stats.hub_weight_share, 8.0 / 9.0, 1e-12);
  EXPECT_EQ(stats.max_degree, 8u);
}

TEST(GraphStatsTest, UniformGraphHasLowGini) {
  TransactionGraph g;
  for (NodeId v = 0; v < 10; ++v) {
    g.AddEdge(v, (v + 1) % 10, 1.0);  // Ring: all strengths equal.
  }
  g.Consolidate();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_NEAR(stats.strength_gini, 0.0, 1e-9);
}

TEST(GraphStatsTest, SkewedGraphHasHighGini) {
  TransactionGraph g;
  for (NodeId v = 1; v <= 50; ++v) g.AddEdge(0, v, 10.0);
  for (NodeId v = 51; v <= 60; ++v) g.AddEdge(v, v - 1, 0.01);
  g.Consolidate();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_GT(stats.strength_gini, 0.4);
}

TEST(DegreeHistogramTest, BucketsAreLog2) {
  TransactionGraph g;
  // Node 0: degree 5 (bucket 2); nodes 1..5: degree >= 1.
  for (NodeId v = 1; v <= 5; ++v) g.AddEdge(0, v, 1.0);
  g.Consolidate();
  auto hist = DegreeHistogramLog2(g);
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[0], 5u);  // Degree-1 nodes.
  EXPECT_EQ(hist[2], 1u);  // Degree-5 hub in [4,8).
}

TEST(ConnectedComponentsTest, CountsIslands) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(3, 4, 1.0);
  g.EnsureNodeCount(7);  // Nodes 5, 6 isolated.
  g.Consolidate();
  EXPECT_EQ(CountConnectedComponents(g), 4u);
}

TEST(ConnectedComponentsTest, SingleComponent) {
  TransactionGraph g;
  for (NodeId v = 0; v < 20; ++v) g.AddEdge(v, (v + 1) % 20, 1.0);
  g.Consolidate();
  EXPECT_EQ(CountConnectedComponents(g), 1u);
}

}  // namespace
}  // namespace txallo::graph
