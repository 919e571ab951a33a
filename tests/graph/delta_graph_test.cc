// Bit-compatibility suite for the delta-log TransactionGraph.
//
// LegacyGraph below is the pre-delta-log storage model (per-node
// std::vector adjacency, pending buffers, full recompute on Consolidate),
// with every floating-point accumulation in its original operation order.
// The delta-log graph promises *bit-identical* reads — FP addition is not
// associative, so this is strictly stronger than approximate equality —
// under any interleaving of AddEdge / AddSelfLoop / Consolidate /
// ScaleWeights / copy / snapshot fold + AdoptCore. The randomized
// schedules here drive both structures through the same op sequences and
// compare every read with exact equality.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "txallo/common/rng.h"
#include "txallo/graph/graph.h"

namespace txallo::graph {
namespace {

// The legacy storage model, verbatim operation order.
class LegacyGraph {
 public:
  void EnsureNodeCount(size_t n) {
    if (n > adjacency_.size()) {
      adjacency_.resize(n);
      pending_.resize(n);
      self_loop_.resize(n, 0.0);
      strength_.resize(n, 0.0);
    }
  }

  void AddEdge(NodeId u, NodeId v, double weight) {
    if (u == v) {
      AddSelfLoop(u, weight);
      return;
    }
    EnsureNodeCount(static_cast<size_t>(std::max(u, v)) + 1);
    pending_[u].push_back({v, weight});
    pending_[v].push_back({u, weight});
  }

  void AddSelfLoop(NodeId v, double weight) {
    EnsureNodeCount(static_cast<size_t>(v) + 1);
    self_loop_[v] += weight;
  }

  void Consolidate() {
    for (size_t v = 0; v < adjacency_.size(); ++v) {
      if (pending_[v].empty()) continue;
      std::vector<Neighbor>& pend = pending_[v];
      std::sort(pend.begin(), pend.end(),
                [](const Neighbor& a, const Neighbor& b) {
                  return a.node < b.node;
                });
      size_t w = 0;
      for (size_t r = 0; r < pend.size(); ++r) {
        if (w > 0 && pend[w - 1].node == pend[r].node) {
          pend[w - 1].weight += pend[r].weight;
        } else {
          pend[w++] = pend[r];
        }
      }
      pend.resize(w);
      std::vector<Neighbor> merged;
      const std::vector<Neighbor>& adj = adjacency_[v];
      size_t i = 0, j = 0;
      while (i < adj.size() || j < pend.size()) {
        if (j == pend.size() ||
            (i < adj.size() && adj[i].node < pend[j].node)) {
          merged.push_back(adj[i++]);
        } else if (i == adj.size() || pend[j].node < adj[i].node) {
          merged.push_back(pend[j++]);
        } else {
          merged.push_back({adj[i].node, adj[i].weight + pend[j].weight});
          ++i;
          ++j;
        }
      }
      adjacency_[v] = std::move(merged);
      pend.clear();
    }
    // Full recompute, id order, strength adds in row order.
    size_t degree_sum = 0;
    for (size_t v = 0; v < adjacency_.size(); ++v) {
      double s = 0.0;
      for (const Neighbor& nb : adjacency_[v]) s += nb.weight;
      strength_[v] = s;
      degree_sum += adjacency_[v].size();
    }
    num_edges_ = degree_sum / 2;
    double total = 0.0;
    for (size_t v = 0; v < adjacency_.size(); ++v) {
      total += strength_[v];
      total += 2.0 * self_loop_[v];
    }
    total_weight_ = total / 2.0;
  }

  void ScaleWeights(double factor) {
    for (std::vector<Neighbor>& row : adjacency_) {
      for (Neighbor& nb : row) nb.weight *= factor;
    }
    for (double& s : self_loop_) s *= factor;
    for (double& s : strength_) s *= factor;
    total_weight_ *= factor;
  }

  size_t num_nodes() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }
  std::span<const Neighbor> Neighbors(NodeId v) const { return adjacency_[v]; }
  double SelfLoop(NodeId v) const { return self_loop_[v]; }
  double Strength(NodeId v) const { return strength_[v]; }
  double TotalWeight() const { return total_weight_; }

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<std::vector<Neighbor>> pending_;
  std::vector<double> self_loop_;
  std::vector<double> strength_;
  size_t num_edges_ = 0;
  double total_weight_ = 0.0;
};

// Exact (bitwise, via ==) equality of every public read.
void ExpectBitIdentical(const TransactionGraph& graph,
                        const LegacyGraph& reference) {
  ASSERT_EQ(graph.num_nodes(), reference.num_nodes());
  ASSERT_EQ(graph.num_edges(), reference.num_edges());
  EXPECT_EQ(graph.TotalWeight(), reference.TotalWeight());
  for (size_t v = 0; v < reference.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    EXPECT_EQ(graph.SelfLoop(id), reference.SelfLoop(id)) << "node " << v;
    EXPECT_EQ(graph.Strength(id), reference.Strength(id)) << "node " << v;
    const std::span<const Neighbor> got = graph.Neighbors(id);
    const std::span<const Neighbor> want = reference.Neighbors(id);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node) << "node " << v << " entry " << i;
      EXPECT_EQ(got[i].weight, want[i].weight)
          << "node " << v << " entry " << i;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(graph.EdgeWeight(id, want[i].node), want[i].weight);
    }
  }
}

// Adds one random edge or self-loop to both graphs.
void AddRandomWrite(Rng* rng, NodeId max_node, TransactionGraph* graph,
                    LegacyGraph* reference) {
  const auto u = static_cast<NodeId>(rng->NextBounded(max_node));
  const double w = 0.25 + rng->NextDouble();
  if (rng->NextBounded(4) == 0) {
    graph->AddSelfLoop(u, w);
    reference->AddSelfLoop(u, w);
    return;
  }
  const auto v = static_cast<NodeId>(rng->NextBounded(max_node));
  graph->AddEdge(u, v, w);
  reference->AddEdge(u, v, w);
}

// One randomized schedule: mixed writes, consolidations, decay, copies and
// strategy rebalances. Parameterized by seed so failures name the schedule.
void RunSchedule(uint64_t seed, int steps, NodeId max_node) {
  Rng rng(seed);
  TransactionGraph graph;
  LegacyGraph reference;
  bool dirty = false;
  for (int step = 0; step < steps; ++step) {
    const uint64_t action = rng.NextBounded(100);
    if (action < 55) {
      const auto u = static_cast<NodeId>(rng.NextBounded(max_node));
      const auto v = static_cast<NodeId>(rng.NextBounded(max_node));
      const double w = 0.25 + rng.NextDouble();
      graph.AddEdge(u, v, w);
      reference.AddEdge(u, v, w);
      dirty = true;
    } else if (action < 70) {
      const auto v = static_cast<NodeId>(rng.NextBounded(max_node));
      const double w = 0.25 + rng.NextDouble();
      graph.AddSelfLoop(v, w);
      reference.AddSelfLoop(v, w);
      dirty = true;
    } else if (action < 90) {
      graph.Consolidate();
      reference.Consolidate();
      dirty = false;
      ExpectBitIdentical(graph, reference);
    } else if (action < 95 && !dirty) {
      // 0.7, not a power of two: (Σw)·f and Σ(w·f) then differ in their
      // last bits, so a consolidation after a scale must re-sum strengths.
      graph.ScaleWeights(0.7);
      reference.ScaleWeights(0.7);
      ExpectBitIdentical(graph, reference);
    } else if (action < 97) {
      // Snapshot copy must read identically and leave the original intact.
      TransactionGraph copy = graph;
      graph = copy;
    } else {
      // A strategy rebalance: BeginRebalance() copies the graph without
      // consolidating, Run() folds the copy (one consolidation at the copy
      // point), the live graph keeps absorbing writes, and Commit() adopts
      // the fold. One task in four is abandoned before Run().
      TransactionGraph snapshot = graph;
      const std::shared_ptr<const GraphCore> base = graph.core();
      const size_t logged = graph.delta_edges();
      const bool ran = rng.NextBounded(4) != 0;
      if (ran) {
        snapshot.Consolidate();
        reference.Consolidate();
        ExpectBitIdentical(snapshot, reference);
        dirty = false;
      }
      const uint64_t writes = rng.NextBounded(4);
      for (uint64_t i = 0; i < writes; ++i) {
        AddRandomWrite(&rng, max_node, &graph, &reference);
        dirty = true;
      }
      const bool adopted = graph.AdoptCore(snapshot.core(), base, logged);
      EXPECT_EQ(adopted, ran && snapshot.core() != base);
      EXPECT_EQ(graph.delta_edges(),
                (adopted ? 0 : logged) + static_cast<size_t>(writes));
      if (!dirty) ExpectBitIdentical(graph, reference);
    }
  }
  graph.Consolidate();
  reference.Consolidate();
  ExpectBitIdentical(graph, reference);
}

TEST(DeltaGraphTest, RandomizedSchedulesMatchLegacyBitForBit) {
  RunSchedule(/*seed=*/1, /*steps=*/4000, /*max_node=*/64);
  RunSchedule(/*seed=*/2, /*steps=*/2000, /*max_node=*/8);
  RunSchedule(/*seed=*/3, /*steps=*/1500, /*max_node=*/512);
  RunSchedule(/*seed=*/4, /*steps=*/800, /*max_node=*/3);
  // Ids past 2^11: the by-owner sort of the log takes two digit passes.
  RunSchedule(/*seed=*/5, /*steps=*/600, /*max_node=*/5000);
}

TEST(DeltaGraphTest, SnapshotCopySharesCoreAndCopiesDelta) {
  TransactionGraph graph;
  Rng rng(9);
  for (int e = 0; e < 50'000; ++e) {
    graph.AddEdge(static_cast<NodeId>(rng.NextBounded(4096)),
                  static_cast<NodeId>(rng.NextBounded(4096)), 1.0);
  }
  graph.Consolidate();
  for (int e = 0; e < 100; ++e) {
    graph.AddEdge(static_cast<NodeId>(rng.NextBounded(4096)),
                  static_cast<NodeId>(rng.NextBounded(4096)), 1.0);
  }
  // The acceptance bar: a snapshot copies >= 10x less than the legacy
  // full-graph copy at a 500:1 frozen:delta ratio.
  EXPECT_GT(graph.frozen_edges(), 0u);
  EXPECT_EQ(graph.delta_edges(), 100u);
  EXPECT_LT(graph.SnapshotBytes() * 10, graph.FullCopyBytes());
  // And the copy really shares the core.
  const TransactionGraph snapshot = graph;
  EXPECT_EQ(snapshot.core().get(), graph.core().get());
}

TEST(DeltaGraphTest, FoldOffThreadThenAdopt) {
  // The rebalance handoff with the fold on another thread: the copy is
  // consolidated off-thread while the owner keeps appending to the live
  // graph's log, then the live graph adopts the fold.
  TransactionGraph graph;
  LegacyGraph reference;
  Rng rng(17);
  for (int e = 0; e < 2000; ++e) {
    const auto u = static_cast<NodeId>(rng.NextBounded(256));
    const auto v = static_cast<NodeId>(rng.NextBounded(256));
    graph.AddEdge(u, v, 1.5);
    reference.AddEdge(u, v, 1.5);
  }
  graph.Consolidate();
  for (int e = 0; e < 300; ++e) AddRandomWrite(&rng, 300, &graph, &reference);

  // BeginRebalance(): cheap copy, plus what Commit() hands AdoptCore.
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const std::shared_ptr<const GraphCore> base = graph.core();
  const size_t logged = graph.delta_edges();
  std::thread task([snapshot] { snapshot->Consolidate(); });
  // Meanwhile the owner keeps absorbing, past the copy's node range too.
  graph.AddSelfLoop(3, 2.0);
  graph.AddEdge(3, 400, 0.5);
  task.join();
  reference.Consolidate();
  reference.AddSelfLoop(3, 2.0);
  reference.AddEdge(3, 400, 0.5);

  // Commit: the fold is adopted; the two newer entries stay logged.
  EXPECT_TRUE(graph.AdoptCore(snapshot->core(), base, logged));
  EXPECT_EQ(graph.core().get(), snapshot->core().get());
  EXPECT_EQ(graph.delta_edges(), 2u);
  graph.Consolidate();
  reference.Consolidate();
  ExpectBitIdentical(graph, reference);
}

TEST(DeltaGraphTest, AdoptCoreRejectsStaleFold) {
  TransactionGraph graph;
  graph.AddEdge(0, 1, 1.0);
  graph.Consolidate();
  graph.AddEdge(1, 2, 1.0);
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const std::shared_ptr<const GraphCore> base = graph.core();
  const size_t logged = graph.delta_edges();
  snapshot->Consolidate();
  // The live graph consolidates before the commit arrives: its core is no
  // longer the fold's base, and the fold must be rejected.
  graph.AddEdge(2, 3, 2.0);
  graph.Consolidate();
  const std::shared_ptr<const GraphCore> live = graph.core();
  EXPECT_FALSE(graph.AdoptCore(snapshot->core(), base, logged));
  EXPECT_EQ(graph.core().get(), live.get());
  EXPECT_TRUE(graph.consolidated());
  EXPECT_EQ(graph.EdgeWeight(1, 2), 1.0);
  EXPECT_EQ(graph.EdgeWeight(2, 3), 2.0);
  // So must a fold whose base a ScaleWeights() replaced.
  auto scaled_snapshot = std::make_shared<TransactionGraph>(graph);
  graph.ScaleWeights(0.5);
  scaled_snapshot->AddEdge(0, 3, 1.0);
  scaled_snapshot->Consolidate();
  EXPECT_FALSE(graph.AdoptCore(scaled_snapshot->core(), live, 0));
  EXPECT_EQ(graph.EdgeWeight(0, 3), 0.0);
  EXPECT_EQ(graph.EdgeWeight(2, 3), 1.0);
}

TEST(DeltaGraphTest, AdoptedGraphKeepsPendingLog) {
  TransactionGraph graph;
  graph.AddEdge(0, 1, 1.0);
  graph.Consolidate();
  graph.AddEdge(0, 1, 2.0);
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const std::shared_ptr<const GraphCore> base = graph.core();
  const size_t logged = graph.delta_edges();
  snapshot->Consolidate();
  graph.AddEdge(0, 2, 4.0);  // Logged after the copy.
  graph.AddSelfLoop(1, 0.5);
  EXPECT_TRUE(graph.AdoptCore(snapshot->core(), base, logged));
  EXPECT_EQ(graph.delta_edges(), 2u);
  EXPECT_FALSE(graph.consolidated());
  graph.Consolidate();
  EXPECT_EQ(graph.EdgeWeight(0, 1), 3.0);
  EXPECT_EQ(graph.EdgeWeight(0, 2), 4.0);
  EXPECT_EQ(graph.SelfLoop(1), 0.5);
  EXPECT_EQ(graph.TotalWeight(), 7.5);
}

TEST(DeltaGraphTest, AdoptingASnapshotThatNeverRanIsANoOp) {
  // An abandoned task never consolidated its copy: the copy still holds
  // the live core (or none), so adopting it must drop no log entry.
  TransactionGraph graph;
  graph.AddEdge(0, 1, 1.0);
  const TransactionGraph coreless = graph;
  EXPECT_FALSE(graph.AdoptCore(coreless.core(), nullptr, 1));
  EXPECT_EQ(graph.delta_edges(), 1u);
  graph.Consolidate();
  graph.AddEdge(1, 2, 3.0);
  const TransactionGraph snapshot = graph;
  const std::shared_ptr<const GraphCore> base = graph.core();
  EXPECT_FALSE(graph.AdoptCore(snapshot.core(), base, 1));
  EXPECT_EQ(graph.core().get(), base.get());
  EXPECT_EQ(graph.delta_edges(), 1u);
  graph.Consolidate();
  EXPECT_EQ(graph.EdgeWeight(1, 2), 3.0);
  EXPECT_EQ(graph.EdgeWeight(0, 1), 1.0);
}

}  // namespace
}  // namespace txallo::graph
