// Bit-compatibility suite for the delta-log TransactionGraph.
//
// LegacyGraph below is the pre-delta-log storage model (per-node
// std::vector adjacency, pending buffers, full recompute on Consolidate),
// with every floating-point accumulation in its original operation order.
// The delta-log graph promises *bit-identical* reads — FP addition is not
// associative, so this is strictly stronger than approximate equality —
// under any interleaving of AddEdge / AddSelfLoop / Consolidate /
// ScaleWeights / copy / Refreeze / AdoptCore. The randomized schedules
// here drive both structures through the same op sequences and compare
// every read with exact equality.
//
// ShadowFoldGraph further down is the delta-log graph as it stood before
// consolidations that end in a rebuild folded the log straight into the
// new core: every consolidation published its merged rows as shadows and a
// rebuild then copied core ⊕ shadows out into a fresh CSR. The fold suite
// drives both through the same schedules and compares the representation
// too (generation, overlay rows, frozen edges, snapshot bytes).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "txallo/common/arena.h"
#include "txallo/common/flat_map.h"
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

// One randomized schedule: mixed writes, consolidations, decay, copies,
// refreezes. Parameterized by seed so failures name the schedule.
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
      graph.ScaleWeights(0.5);
      reference.ScaleWeights(0.5);
      ExpectBitIdentical(graph, reference);
    } else if (action < 98) {
      // Snapshot copy must read identically and leave the original intact.
      TransactionGraph copy = graph;
      graph = copy;
    } else if (!dirty) {
      graph.Refreeze();  // Representation change only.
      ExpectBitIdentical(graph, reference);
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
}

// The shadow-then-rebuild delta-log graph, operation order verbatim: a
// stable sort of the log's directed halves by owner, every merged row
// published as a shadow, then (on the half rule, the quarter rule or
// Refreeze) a rebuild that copies core ⊕ shadows into a new core. It
// counts which rule folded, so the fold suite can check its schedules
// reach every trigger.
class ShadowFoldGraph {
 public:
  struct FoldCounts {
    int half = 0;
    int quarter = 0;
    int refreeze = 0;
    int scaled = 0;
    int with_old_shadows = 0;     // Shadows older than the merged log.
    int with_self_shadows = 0;    // Self-loop shadows folded in.
  };

  void AddEdge(NodeId u, NodeId v, double weight) {
    if (u == v) {
      AddSelfLoop(u, weight);
      return;
    }
    num_nodes_ = std::max<size_t>(num_nodes_, std::max(u, v) + size_t{1});
    log_.push_back({u, v, weight});
  }

  void AddSelfLoop(NodeId v, double weight) {
    num_nodes_ = std::max<size_t>(num_nodes_, v + size_t{1});
    const double current = SelfLoop(v);
    self_ovl_[v] = current + weight;
    caches_dirty_ = true;
  }

  void Consolidate() {
    old_shadows_ = !rows_.empty();
    if (!log_.empty()) MergePendingLog();
    if (scaled_) {
      Install(BuildCore(/*recompute_strengths=*/true), &counts_.scaled);
      scaled_ = false;
      caches_dirty_ = true;
    }
    if (caches_dirty_) {
      RecomputeTotals();
      caches_dirty_ = false;
    }
    if (core_ == nullptr || overlay_entries_ * 2 > core_->entries.size()) {
      Install(BuildCore(/*recompute_strengths=*/false), &counts_.half);
    } else if (arena_.size() > 64 && arena_.size() > 2 * overlay_entries_) {
      common::Arena<Neighbor> compacted;
      compacted.reserve(overlay_entries_);
      for (auto& entry : rows_) {
        entry.second.row = compacted.Append(arena_.View(entry.second.row));
      }
      arena_ = std::move(compacted);
    }
  }

  void Refreeze() {
    Consolidate();
    if (core_ == nullptr || !rows_.empty() || !self_ovl_.empty()) {
      Install(BuildCore(/*recompute_strengths=*/false), &counts_.refreeze);
    }
  }

  bool MaybeRefreeze() {
    Consolidate();
    if (core_ != nullptr && overlay_entries_ * 4 <= core_->entries.size()) {
      return false;
    }
    if (rows_.empty() && self_ovl_.empty() && core_ != nullptr) return false;
    Install(BuildCore(/*recompute_strengths=*/false), &counts_.quarter);
    return true;
  }

  void ScaleWeights(double factor) {
    std::shared_ptr<GraphCore> core = BuildCore(false);
    for (Neighbor& nb : core->entries) nb.weight *= factor;
    for (double& s : core->self_loop) s *= factor;
    for (double& s : core->strength) s *= factor;
    core_ = std::move(core);
    ClearOverlay();
    ++generation_;
    total_weight_ *= factor;
    scaled_ = true;
  }

  std::shared_ptr<const GraphCore> core() const { return core_; }

  bool AdoptCore(std::shared_ptr<const GraphCore> core,
                 uint64_t fold_generation) {
    if (core == nullptr || fold_generation != generation_) return false;
    common::FlatMap<NodeId, double> kept;
    for (const auto& entry : self_ovl_) {
      const bool folded = entry.first < core->num_nodes() &&
                          core->self_loop[entry.first] == entry.second;
      if (!folded) kept.emplace(entry.first, entry.second);
    }
    core_ = std::move(core);
    rows_.clear();
    arena_.Clear();
    overlay_entries_ = 0;
    self_ovl_ = std::move(kept);
    return true;
  }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return degree_sum_ / 2; }
  std::span<const Neighbor> Neighbors(NodeId v) const {
    auto it = rows_.find(v);
    if (it != rows_.end()) return arena_.View(it->second.row);
    if (core_ != nullptr && v < core_->num_nodes()) return core_->Row(v);
    return {};
  }
  double SelfLoop(NodeId v) const {
    auto it = self_ovl_.find(v);
    if (it != self_ovl_.end()) return it->second;
    return core_ != nullptr && v < core_->num_nodes() ? core_->self_loop[v]
                                                      : 0.0;
  }
  double Strength(NodeId v) const {
    auto it = rows_.find(v);
    if (it != rows_.end()) return it->second.strength;
    return core_ != nullptr && v < core_->num_nodes() ? core_->strength[v]
                                                      : 0.0;
  }
  double TotalWeight() const { return total_weight_; }
  uint64_t generation() const { return generation_; }
  size_t delta_edges() const { return log_.size(); }
  size_t overlay_rows() const { return rows_.size(); }
  size_t frozen_edges() const {
    return core_ != nullptr ? core_->entries.size() / 2 : 0;
  }
  // The same layout as TransactionGraph's (its log entry and shadow row
  // types have these sizes), so the byte counts must agree exactly.
  size_t SnapshotBytes() const {
    return log_.size() * sizeof(DeltaEdge) + arena_.MemoryBytes() +
           rows_.MemoryBytes() + self_ovl_.MemoryBytes() +
           sizeof(TransactionGraph);
  }
  const FoldCounts& counts() const { return counts_; }

 private:
  struct DeltaEdge {
    NodeId u;
    NodeId v;
    double weight;
  };
  struct ShadowRow {
    common::Arena<Neighbor>::Ref row;
    double strength = 0.0;
  };
  struct OwnedHalf {
    NodeId owner;
    Neighbor nb;
  };

  void MergePendingLog() {
    ++generation_;
    caches_dirty_ = true;
    std::vector<OwnedHalf> halves;
    for (const DeltaEdge& e : log_) {
      halves.push_back({e.u, {e.v, e.weight}});
      halves.push_back({e.v, {e.u, e.weight}});
    }
    std::stable_sort(halves.begin(), halves.end(),
                     [](const OwnedHalf& a, const OwnedHalf& b) {
                       return a.owner < b.owner;
                     });
    size_t i = 0;
    while (i < halves.size()) {
      const NodeId owner = halves[i].owner;
      std::vector<Neighbor> pend;
      while (i < halves.size() && halves[i].owner == owner) {
        pend.push_back(halves[i++].nb);
      }
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
      MergeRow(owner, pend);
    }
    log_.clear();
  }

  void MergeRow(NodeId v, const std::vector<Neighbor>& pend) {
    const std::span<const Neighbor> adj = Neighbors(v);
    std::vector<Neighbor> merged;
    size_t i = 0, j = 0;
    while (i < adj.size() || j < pend.size()) {
      if (j == pend.size() || (i < adj.size() && adj[i].node < pend[j].node)) {
        merged.push_back(adj[i++]);
      } else if (i == adj.size() || pend[j].node < adj[i].node) {
        merged.push_back(pend[j++]);
      } else {
        merged.push_back({adj[i].node, adj[i].weight + pend[j].weight});
        ++i;
        ++j;
      }
    }
    double s = 0.0;
    for (const Neighbor& nb : merged) s += nb.weight;
    const size_t old_len = adj.size();
    const ShadowRow shadow{arena_.Append(merged), s};
    auto [it, inserted] = rows_.emplace(v, shadow);
    if (inserted) {
      overlay_entries_ += merged.size();
    } else {
      it->second = shadow;
      overlay_entries_ += merged.size() - old_len;
    }
    degree_sum_ += merged.size() - old_len;
  }

  void RecomputeTotals() {
    double total = 0.0;
    for (size_t v = 0; v < num_nodes_; ++v) {
      total += Strength(static_cast<NodeId>(v));
      total += 2.0 * SelfLoop(static_cast<NodeId>(v));
    }
    total_weight_ = total / 2.0;
  }

  std::shared_ptr<GraphCore> BuildCore(bool recompute_strengths) const {
    auto core = std::make_shared<GraphCore>();
    core->offsets.resize(num_nodes_ + 1);
    core->self_loop.resize(num_nodes_);
    core->strength.resize(num_nodes_);
    for (size_t v = 0; v < num_nodes_; ++v) {
      const auto id = static_cast<NodeId>(v);
      const std::span<const Neighbor> row = Neighbors(id);
      core->entries.insert(core->entries.end(), row.begin(), row.end());
      core->offsets[v + 1] = core->entries.size();
      core->self_loop[v] = SelfLoop(id);
      if (recompute_strengths) {
        double s = 0.0;
        for (const Neighbor& nb : row) s += nb.weight;
        core->strength[v] = s;
      } else {
        core->strength[v] = Strength(id);
      }
    }
    return core;
  }

  void Install(std::shared_ptr<const GraphCore> core, int* counter) {
    ++*counter;
    if (old_shadows_) ++counts_.with_old_shadows;
    if (!self_ovl_.empty()) ++counts_.with_self_shadows;
    core_ = std::move(core);
    ClearOverlay();
    ++generation_;
  }

  void ClearOverlay() {
    rows_.clear();
    arena_.Clear();
    self_ovl_.clear();
    overlay_entries_ = 0;
  }

  std::shared_ptr<const GraphCore> core_;
  common::Arena<Neighbor> arena_;
  common::FlatMap<NodeId, ShadowRow> rows_;
  common::FlatMap<NodeId, double> self_ovl_;
  std::vector<DeltaEdge> log_;
  size_t num_nodes_ = 0;
  size_t degree_sum_ = 0;
  size_t overlay_entries_ = 0;
  double total_weight_ = 0.0;
  bool caches_dirty_ = false;
  bool scaled_ = false;
  bool old_shadows_ = false;
  uint64_t generation_ = 0;
  FoldCounts counts_;
};

// Field-by-field equality with the shadow-then-rebuild graph: every row,
// strength and self-loop bitwise, the total, and the representation.
void ExpectSameRepresentation(const TransactionGraph& graph,
                              const ShadowFoldGraph& reference) {
  ASSERT_EQ(graph.num_nodes(), reference.num_nodes());
  ASSERT_EQ(graph.num_edges(), reference.num_edges());
  EXPECT_EQ(graph.TotalWeight(), reference.TotalWeight());
  EXPECT_EQ(graph.generation(), reference.generation());
  EXPECT_EQ(graph.delta_edges(), reference.delta_edges());
  EXPECT_EQ(graph.overlay_rows(), reference.overlay_rows());
  EXPECT_EQ(graph.frozen_edges(), reference.frozen_edges());
  EXPECT_EQ(graph.SnapshotBytes(), reference.SnapshotBytes());
  for (size_t v = 0; v < reference.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    ASSERT_EQ(graph.SelfLoop(id), reference.SelfLoop(id)) << "node " << v;
    ASSERT_EQ(graph.Strength(id), reference.Strength(id)) << "node " << v;
    const std::span<const Neighbor> got = graph.Neighbors(id);
    const std::span<const Neighbor> want = reference.Neighbors(id);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].node, want[i].node) << "node " << v << " entry " << i;
      ASSERT_EQ(got[i].weight, want[i].weight)
          << "node " << v << " entry " << i;
    }
  }
}

// One randomized schedule over both graphs. Logs come in bursts of very
// different sizes, so a consolidation may stay a shadow overlay, cross the
// quarter rule or the half rule; shadows and self-loop shadows pile up
// between folds; scales, refreezes, copies and adopted off-thread folds
// interleave.
ShadowFoldGraph::FoldCounts RunFoldSchedule(uint64_t seed, int steps,
                                            NodeId max_node) {
  Rng rng(seed);
  TransactionGraph graph;
  ShadowFoldGraph reference;
  bool consolidated = true;
  for (int step = 0; step < steps; ++step) {
    const uint64_t action = rng.NextBounded(100);
    if (action < 40) {
      // Burst of 1, a few, or many edges.
      const uint64_t shape = rng.NextBounded(10);
      const uint64_t burst = shape < 5   ? 1
                             : shape < 8 ? 1 + rng.NextBounded(6)
                                         : 1 + rng.NextBounded(max_node * 2);
      for (uint64_t e = 0; e < burst; ++e) {
        const auto u = static_cast<NodeId>(rng.NextBounded(max_node));
        const auto v = static_cast<NodeId>(rng.NextBounded(max_node));
        const double w = 0.25 + rng.NextDouble();
        graph.AddEdge(u, v, w);
        reference.AddEdge(u, v, w);
      }
      consolidated = false;
    } else if (action < 52) {
      const auto v = static_cast<NodeId>(rng.NextBounded(max_node));
      const double w = 0.25 + rng.NextDouble();
      graph.AddSelfLoop(v, w);
      reference.AddSelfLoop(v, w);
    } else if (action < 70) {
      graph.Consolidate();
      reference.Consolidate();
      consolidated = true;
      ExpectSameRepresentation(graph, reference);
    } else if (action < 82) {
      EXPECT_EQ(graph.MaybeRefreeze(), reference.MaybeRefreeze());
      consolidated = true;
      ExpectSameRepresentation(graph, reference);
    } else if (action < 88) {
      graph.Refreeze();
      reference.Refreeze();
      consolidated = true;
      ExpectSameRepresentation(graph, reference);
    } else if (action < 92) {
      if (!consolidated) continue;
      graph.ScaleWeights(0.5);
      reference.ScaleWeights(0.5);
      ExpectSameRepresentation(graph, reference);
    } else if (action < 96) {
      TransactionGraph copy = graph;
      graph = copy;
    } else {
      // An off-thread fold of a snapshot, adopted at commit time.
      if (!consolidated) continue;
      TransactionGraph snapshot = graph;
      ShadowFoldGraph reference_snapshot = reference;
      const uint64_t generation = graph.generation();
      snapshot.Refreeze();
      reference_snapshot.Refreeze();
      const auto v = static_cast<NodeId>(rng.NextBounded(max_node));
      graph.AddSelfLoop(v, 1.0);
      reference.AddSelfLoop(v, 1.0);
      EXPECT_EQ(graph.AdoptCore(snapshot.core(), generation),
                reference.AdoptCore(reference_snapshot.core(), generation));
      ExpectSameRepresentation(graph, reference);
    }
  }
  graph.Refreeze();
  reference.Refreeze();
  ExpectSameRepresentation(graph, reference);
  return reference.counts();
}

TEST(DeltaGraphTest, OnePassFoldMatchesShadowThenRebuildFieldByField) {
  ShadowFoldGraph::FoldCounts total;
  // Seeds 1–6 keep every id below 2^11; seed 7's ids run past it, so the
  // by-owner sort of the log takes more than one digit pass.
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    const ShadowFoldGraph::FoldCounts counts = RunFoldSchedule(
        seed, /*steps=*/seed <= 6 ? 900 : 400,
        /*max_node=*/static_cast<NodeId>(seed <= 6 ? 8 << seed : 5000));
    if (HasFatalFailure()) return;
    total.half += counts.half;
    total.quarter += counts.quarter;
    total.refreeze += counts.refreeze;
    total.scaled += counts.scaled;
    total.with_old_shadows += counts.with_old_shadows;
    total.with_self_shadows += counts.with_self_shadows;
  }
  // The schedules reach every fold trigger and every overlay kind a fold
  // must carry.
  EXPECT_GT(total.half, 0);
  EXPECT_GT(total.quarter, 0);
  EXPECT_GT(total.refreeze, 0);
  EXPECT_GT(total.scaled, 0);
  EXPECT_GT(total.with_old_shadows, 0);
  EXPECT_GT(total.with_self_shadows, 0);
}

TEST(DeltaGraphTest, SnapshotCopySharesCoreAndCopiesDelta) {
  TransactionGraph graph;
  Rng rng(9);
  for (int e = 0; e < 50'000; ++e) {
    graph.AddEdge(static_cast<NodeId>(rng.NextBounded(4096)),
                  static_cast<NodeId>(rng.NextBounded(4096)), 1.0);
  }
  graph.Refreeze();
  for (int e = 0; e < 100; ++e) {
    graph.AddEdge(static_cast<NodeId>(rng.NextBounded(4096)),
                  static_cast<NodeId>(rng.NextBounded(4096)), 1.0);
  }
  graph.Consolidate();
  // The acceptance bar: a snapshot copies >= 10x less than the legacy
  // full-graph copy at a 500:1 frozen:delta ratio.
  EXPECT_GT(graph.frozen_edges(), 0u);
  EXPECT_GT(graph.overlay_rows(), 0u);
  EXPECT_LT(graph.SnapshotBytes() * 10, graph.FullCopyBytes());
  // And the copy really shares the core.
  const TransactionGraph snapshot = graph;
  EXPECT_EQ(snapshot.core().get(), graph.core().get());
}

TEST(DeltaGraphTest, RefreezeFoldOffThreadThenAdopt) {
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
  reference.Consolidate();

  // BeginRebalance(): cheap snapshot + captured generation.
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const uint64_t generation = graph.generation();

  // Owner keeps absorbing while the "task" folds the snapshot.
  graph.AddSelfLoop(3, 2.0);
  reference.AddSelfLoop(3, 2.0);
  snapshot->Refreeze();

  // Commit: the fold is adopted; the newer self-loop shadow survives.
  EXPECT_TRUE(graph.AdoptCore(snapshot->core(), generation));
  graph.Consolidate();
  reference.Consolidate();
  ExpectBitIdentical(graph, reference);
}

TEST(DeltaGraphTest, AdoptCoreRejectsStaleFold) {
  TransactionGraph graph;
  graph.AddEdge(0, 1, 1.0);
  graph.Consolidate();
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const uint64_t generation = graph.generation();
  snapshot->Refreeze();
  // The live graph consolidates new edges before the commit arrives: the
  // fold no longer covers its rows and must be rejected.
  graph.AddEdge(1, 2, 1.0);
  graph.Consolidate();
  EXPECT_FALSE(graph.AdoptCore(snapshot->core(), generation));
  EXPECT_FALSE(graph.AdoptCore(nullptr, graph.generation()));
  EXPECT_EQ(graph.EdgeWeight(1, 2), 1.0);
}

TEST(DeltaGraphTest, AdoptedGraphKeepsPendingLog) {
  TransactionGraph graph;
  graph.AddEdge(0, 1, 1.0);
  graph.Consolidate();
  auto snapshot = std::make_shared<TransactionGraph>(graph);
  const uint64_t generation = graph.generation();
  snapshot->Refreeze();
  graph.AddEdge(0, 2, 4.0);  // Un-consolidated delta at commit time.
  EXPECT_TRUE(graph.AdoptCore(snapshot->core(), generation));
  EXPECT_FALSE(graph.consolidated());
  graph.Consolidate();
  EXPECT_EQ(graph.EdgeWeight(0, 2), 4.0);
  EXPECT_EQ(graph.EdgeWeight(0, 1), 1.0);
}

}  // namespace
}  // namespace txallo::graph
