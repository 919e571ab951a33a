// The transaction graph (paper Definition 2): an undirected weighted graph
// whose nodes are accounts and whose edge weights accumulate the 1/π(Tx)
// shares of every historical transaction connecting the two endpoints.
// Self-loop weight (single-account transactions) is tracked per node.
//
// Storage model — a frozen CSR core plus the delta log:
//
//   core_  an immutable CSR snapshot (GraphCore) shared by shared_ptr:
//          sorted rows in one array, per-node self-loop and strength
//          caches, and the total weight. Every read is a walk of it.
//   log_   the append-only delta log: every AddEdge() and AddSelfLoop()
//          since the last Consolidate(), in call order.
//
// Consolidate() folds the log into a new core in one pass. It
// radix-sorts the log's directed halves by owner (stable, O(|log|) per
// 11-bit digit of the largest id) and writes the new core in node-id
// order: each touched owner's core row merged with its sorted run,
// untouched rows block-copied from the old core. Self-loop additions are
// then applied in log order. The cost is O(N + E + |log|).
//
// Copying the graph shares the core and copies only the log, so a
// strategy's BeginRebalance() snapshot is O(delta), independent of the
// frozen edge count. The rebalance task consolidates the copy off-thread,
// and the commit hands that fold back with AdoptCore(fold, base_core,
// logged_edges): the live graph swaps in the fold and drops the log
// prefix it covered, so the owner thread never pays the fold. AdoptCore
// leaves the graph unchanged when its core is no longer `base_core` or
// when the snapshot never consolidated.
//
// Bit-compatibility: every floating-point accumulation (pending-run
// sort+dedup, sorted row merge, strength refresh, self-loop adds,
// total-weight pass, per-entry weight scaling) replays the legacy
// implementation's exact operation order, so reads are bit-identical to
// the pre-delta-log structure under any interleaving of AddEdge/
// AddSelfLoop/Consolidate/ScaleWeights/copy/AdoptCore — pinned by the
// randomized equivalence suite in tests/graph/delta_graph_test.cc and by
// the golden replay trace.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "txallo/chain/account.h"

namespace txallo::graph {

using NodeId = chain::AccountId;

/// One adjacency entry: neighbor and accumulated weight.
struct Neighbor {
  NodeId node;
  double weight;
};

/// Immutable CSR snapshot of a consolidated graph: sorted adjacency rows in
/// one contiguous array plus the per-node self-loop and strength caches.
/// Shared by shared_ptr between a live graph and its snapshots; never
/// mutated once shared.
struct GraphCore {
  std::vector<size_t> offsets;    // n + 1
  std::vector<Neighbor> entries;  // 2E, rows sorted by neighbor id
  std::vector<double> self_loop;  // n
  std::vector<double> strength;   // n
  double total_weight = 0.0;

  size_t num_nodes() const { return self_loop.size(); }
  std::span<const Neighbor> Row(NodeId v) const {
    return {entries.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }
  /// Bytes a deep copy of the core would duplicate.
  size_t MemoryBytes() const {
    return offsets.size() * sizeof(size_t) +
           entries.size() * sizeof(Neighbor) +
           (self_loop.size() + strength.size()) * sizeof(double);
  }
};

/// Mutable transaction graph with buffered edge accumulation.
///
/// Writers call AddEdge()/AddSelfLoop() any number of times, then
/// Consolidate() once; readers (Neighbors(), EdgeWeight(), SelfLoop(), ...)
/// require a consolidated graph.
class TransactionGraph {
 public:
  TransactionGraph() = default;

  /// Grows the node set so that ids [0, n) are valid. O(1).
  void EnsureNodeCount(size_t n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  /// Accumulates weight on the undirected edge {u, v}. u == v is routed to
  /// AddSelfLoop. Node ids are grown on demand. O(1) append to the delta
  /// log.
  void AddEdge(NodeId u, NodeId v, double weight);

  /// Accumulates self-loop weight w{v,v}. O(1) append to the delta log.
  void AddSelfLoop(NodeId v, double weight);

  /// Folds the delta log into a new core (O(N + E + |log|)). A no-op when
  /// the log is empty, a core exists and the graph was not scaled since.
  void Consolidate();

  /// True when the delta log is empty.
  bool consolidated() const { return log_.empty(); }

  size_t num_nodes() const { return num_nodes_; }

  /// Number of distinct undirected edges (excluding self-loops).
  /// Precondition: consolidated().
  size_t num_edges() const { return frozen_edges(); }

  /// Sorted adjacency of v (no self-loop entry). Precondition: consolidated().
  std::span<const Neighbor> Neighbors(NodeId v) const {
    if (core_ != nullptr && v < core_->num_nodes()) return core_->Row(v);
    return {};
  }

  /// w{u,v} for u != v (0 when absent); w{v,v} when u == v. Binary search
  /// over the sorted row. Precondition: consolidated().
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Self-loop weight w{v,v}. Precondition: consolidated().
  double SelfLoop(NodeId v) const {
    return core_ != nullptr && v < core_->num_nodes() ? core_->self_loop[v]
                                                      : 0.0;
  }

  /// strength(v) = Σ_{u != v} w{v,u}  (paper's w{v, V\v}).
  /// Precondition: consolidated().
  double Strength(NodeId v) const {
    return core_ != nullptr && v < core_->num_nodes() ? core_->strength[v]
                                                      : 0.0;
  }

  /// Multiplies every edge and self-loop weight by `factor` (> 0).
  /// This implements exponential history decay: calling
  /// ScaleWeights(decay) once per window makes a transaction from w
  /// windows ago weigh decay^w — recency weighting for the "predict future
  /// transactions" extension the paper leaves as future work (§VIII), and
  /// the "recent history only" practice it borrows from Shard Scheduler
  /// (§VI-A). Scales a copy of the core per entry (O(E), like the legacy
  /// per-entry scale). Precondition: consolidated().
  void ScaleWeights(double factor);

  /// Total graph weight: Σ_{unordered pairs} w{u,v} + Σ_v w{v,v}.
  /// Equals |T| when every transaction distributed its unit weight here.
  /// Precondition: consolidated().
  double TotalWeight() const {
    return core_ != nullptr ? core_->total_weight : 0.0;
  }

  // --- Snapshot handoff ---------------------------------------------------

  /// The frozen core (nullptr before the first consolidation). The returned
  /// core is immutable and safe to share across threads.
  std::shared_ptr<const GraphCore> core() const { return core_; }

  /// Adopts `fold`, the core a copy of this graph produced by consolidating
  /// (typically off-thread), and drops the first `logged_edges` log entries
  /// it covered. `base_core` and `logged_edges` are this graph's core() and
  /// delta_edges() when the copy was taken. Entries logged since stay in
  /// the log. Returns false without changes when this graph's core is no
  /// longer `base_core` (it consolidated or scaled since: the fold is
  /// stale), when `fold` is still `base_core` (the copy never
  /// consolidated) or when the log is shorter than `logged_edges`.
  /// O(delta).
  bool AdoptCore(std::shared_ptr<const GraphCore> fold,
                 const std::shared_ptr<const GraphCore>& base_core,
                 size_t logged_edges);

  // --- Size accounting (BENCH_kernels.json counters) ----------------------

  /// Bytes a copy of this graph duplicates (the delta log; the core is
  /// shared, not copied).
  size_t SnapshotBytes() const;
  /// Bytes a deep copy (snapshot + core) would duplicate: the legacy
  /// full-copy cost.
  size_t FullCopyBytes() const {
    return SnapshotBytes() + (core_ != nullptr ? core_->MemoryBytes() : 0);
  }
  /// AddEdge()/AddSelfLoop() calls still in the delta log.
  size_t delta_edges() const { return log_.size(); }
  /// Undirected edges in the frozen core (0 before the first
  /// consolidation), whatever the log holds.
  size_t frozen_edges() const {
    return core_ != nullptr ? core_->entries.size() / 2 : 0;
  }

 private:
  // One logged addition; u == v is a self-loop.
  struct DeltaEdge {
    NodeId u;
    NodeId v;
    double weight;
  };

  // Writes core ⊕ delta log into a new (still private) core. After a
  // ScaleWeights(), every strength is re-summed over its folded row (the
  // legacy post-scale consolidation behavior); otherwise untouched nodes
  // keep their cached values bit-identically.
  std::shared_ptr<GraphCore> Fold() const;

  std::shared_ptr<const GraphCore> core_;
  std::vector<DeltaEdge> log_;
  size_t num_nodes_ = 0;
  bool scaled_ = false;  // ScaleWeights ran; next Consolidate re-sums strengths.
};

}  // namespace txallo::graph
