// The transaction graph (paper Definition 2): an undirected weighted graph
// whose nodes are accounts and whose edge weights accumulate the 1/π(Tx)
// shares of every historical transaction connecting the two endpoints.
// Self-loop weight (single-account transactions) is tracked per node.
//
// Storage model — frozen CSR core + delta log + shadow rows:
//
//   core_        an immutable CSR snapshot (GraphCore) shared by
//                shared_ptr. After a freeze, reads for untouched nodes are
//                contiguous array walks.
//   log_         the append-only delta log: every AddEdge() since the last
//                Consolidate(), in call order.
//   rows_/arena_ shadow rows: for each node touched by a consolidation
//                after the freeze, the node's *full merged row* (core row ⊕
//                delta, sorted, with its refreshed strength), stored in one
//                arena. Reads check the shadow first, then the core.
//   self_ovl_    shadow self-loop weights (AddSelfLoop applies
//                immediately, like the legacy structure).
//
// Copying the graph shares the core and copies only log + shadows, so a
// strategy's BeginRebalance() snapshot is O(delta), independent of the
// frozen edge count — the old representation copied all O(E) adjacency
// vectors. Refreeze() folds core ⊕ shadows into a fresh core (O(E), meant
// for the off-thread RebalanceTask); AdoptCore() lets the live graph adopt
// that fold in O(overlay) at commit time.
//
// A consolidation radix-sorts the log's directed halves by owner (stable,
// O(|log|) per 11-bit digit of the largest id, so a small log costs little
// on a large graph) and merges each touched owner's run against its
// current row once. It then
// either publishes or folds:
//
//   publish  the merged rows become shadow rows: every consolidation that
//            does not rebuild, such as a strategy's O(delta) consolidation
//            before it snapshots the graph.
//   fold     a new core is written in one pass in node-id order: merged
//            rows for touched owners, shadow rows for the rest of the
//            overlay, untouched rows block-copied from the old core. This
//            happens when the first core is built, after ScaleWeights(),
//            when the overlay the merge leaves would outgrow half the core
//            (Consolidate), a quarter of it (MaybeRefreeze), or whenever
//            any overlay remains (Refreeze).
//
// The fold decision reads the exact post-merge overlay, so a fold leaves
// the same representation (generation, overlay rows, frozen edges,
// snapshot bytes) as publishing and then rebuilding would.
//
// Bit-compatibility: every floating-point accumulation (pending-run
// sort+dedup, sorted row merge, strength refresh, total-weight pass,
// per-entry weight scaling) replays the legacy implementation's exact
// operation order, so reads are bit-identical to the pre-delta-log
// structure under any interleaving of AddEdge/AddSelfLoop/Consolidate/
// ScaleWeights/copy — pinned by the randomized equivalence suites in
// tests/graph/delta_graph_test.cc (against the pre-delta-log structure,
// and field by field against publish-then-rebuild) and by the golden
// replay trace.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/common/arena.h"
#include "txallo/common/flat_map.h"

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
/// Consolidate() once; readers (Neighbors(), EdgeWeight()) require a
/// consolidated graph.
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

  /// Accumulates self-loop weight w{v,v}.
  void AddSelfLoop(NodeId v, double weight);

  /// Merges the delta log (O(N + delta log delta)) into shadow rows, or,
  /// when no core exists yet, the graph was scaled or the overlay would
  /// outgrow half the core, straight into a new core (O(N + E)). Idempotent.
  void Consolidate();

  /// True when the delta log is empty.
  bool consolidated() const { return log_.empty(); }

  size_t num_nodes() const { return num_nodes_; }

  /// Number of distinct undirected edges (excluding self-loops).
  /// Precondition: consolidated().
  size_t num_edges() const { return degree_sum_ / 2; }

  /// Sorted adjacency of v (no self-loop entry). Precondition: consolidated().
  std::span<const Neighbor> Neighbors(NodeId v) const {
    if (!rows_.empty()) {
      auto it = rows_.find(v);
      if (it != rows_.end()) return row_arena_.View(it->second.row);
    }
    if (core_ != nullptr && v < core_->num_nodes()) return core_->Row(v);
    return {};
  }

  /// w{u,v} for u != v (0 when absent); w{v,v} when u == v. Binary search
  /// over the sorted row. Precondition: consolidated().
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Self-loop weight w{v,v}.
  double SelfLoop(NodeId v) const {
    if (!self_ovl_.empty()) {
      auto it = self_ovl_.find(v);
      if (it != self_ovl_.end()) return it->second;
    }
    return core_ != nullptr && v < core_->num_nodes() ? core_->self_loop[v]
                                                      : 0.0;
  }

  /// strength(v) = Σ_{u != v} w{v,u}  (paper's w{v, V\v}).
  /// Precondition: consolidated().
  double Strength(NodeId v) const {
    if (!rows_.empty()) {
      auto it = rows_.find(v);
      if (it != rows_.end()) return it->second.strength;
    }
    return core_ != nullptr && v < core_->num_nodes() ? core_->strength[v]
                                                      : 0.0;
  }

  /// Multiplies every edge and self-loop weight by `factor` (> 0).
  /// This implements exponential history decay: calling
  /// ScaleWeights(decay) once per window makes a transaction from w
  /// windows ago weigh decay^w — recency weighting for the "predict future
  /// transactions" extension the paper leaves as future work (§VIII), and
  /// the "recent history only" practice it borrows from Shard Scheduler
  /// (§VI-A). Folds into a fresh core and scales per entry (O(E), like the
  /// legacy per-entry scale). Precondition: consolidated().
  void ScaleWeights(double factor);

  /// Total graph weight: Σ_{unordered pairs} w{u,v} + Σ_v w{v,v}.
  /// Equals |T| when every transaction distributed its unit weight here.
  /// Precondition: consolidated().
  double TotalWeight() const { return total_weight_; }

  // --- Freeze / snapshot protocol -----------------------------------------

  /// Folds core ⊕ shadows ⊕ delta log into a fresh core so every read is a
  /// pure CSR walk. O(N + E); meant to run off-thread (inside a
  /// RebalanceTask) or at a global step that is O(N + E) anyway.
  void Refreeze();

  /// Consolidates, folding when the overlay the merge leaves would outgrow
  /// a quarter of the core (or no core exists yet). A pure function of
  /// graph state, so callers on any thread-count/sync-mode path make the
  /// same decision. Returns true when the quarter rule, not Consolidate()'s
  /// own half rule, folded.
  bool MaybeRefreeze();

  /// The frozen core (nullptr before the first freeze). The returned core
  /// is immutable and safe to share across threads.
  std::shared_ptr<const GraphCore> core() const { return core_; }

  /// Consolidation generation: bumped whenever rows change meaning
  /// (Consolidate with a non-empty log, ScaleWeights, Refreeze, a freeze
  /// inside Consolidate). AddEdge/AddSelfLoop do NOT bump it — their
  /// effects live in the delta log / self-loop shadows, which survive
  /// AdoptCore().
  uint64_t generation() const { return generation_; }

  /// Adopts `core` — a fold produced (typically off-thread) from a snapshot
  /// copied at `fold_generation` — clearing the edge-row shadows it
  /// subsumes. O(overlay). Returns false without changes when this graph
  /// consolidated, scaled or refroze since the snapshot (the fold is
  /// stale); the caller just keeps its current representation.
  /// Self-loop shadows accumulated while the fold was in flight survive;
  /// the un-consolidated delta log is untouched either way.
  bool AdoptCore(std::shared_ptr<const GraphCore> core,
                 uint64_t fold_generation);

  // --- Size accounting (BENCH_kernels.json counters) ----------------------

  /// Bytes a copy of this graph duplicates (delta log + shadow rows +
  /// shadow maps; the core is shared, not copied).
  size_t SnapshotBytes() const;
  /// Bytes a deep copy (snapshot + core) would duplicate: the legacy
  /// full-copy cost.
  size_t FullCopyBytes() const {
    return SnapshotBytes() + (core_ != nullptr ? core_->MemoryBytes() : 0);
  }
  /// AddEdge() calls still in the delta log.
  size_t delta_edges() const { return log_.size(); }
  /// Nodes with a shadow row overlaying the core.
  size_t overlay_rows() const { return rows_.size(); }
  /// Undirected edges in the frozen core (0 before the first freeze).
  size_t frozen_edges() const {
    return core_ != nullptr ? core_->entries.size() / 2 : 0;
  }

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

  // One directed half of a logged edge: `half` goes into `owner`'s row.
  struct OwnedHalf {
    NodeId owner;
    Neighbor half;
  };
  // One touched owner's merged row, scratch_merged_[previous run's end,
  // end), with its re-summed strength.
  struct MergedRun {
    NodeId owner;
    size_t end;
    double strength;
  };
  // Which fold, beyond the half rule, a consolidation's caller asks for:
  // none (Consolidate), the quarter rule (MaybeRefreeze) or any overlay at
  // all (Refreeze).
  enum class FoldRule { kHalf, kQuarter, kAlways };

  // Merges the log and, when the half rule or `rule` asks, folds in the
  // same call. Returns true when `rule`, not the half rule, folded.
  bool Consolidate(FoldRule rule);
  // Merges the delta log into scratch_runs_ (one run per touched owner, in
  // id order) and empties the log; updates degree_sum_ and returns the
  // overlay entry count the merged runs would leave as shadows.
  size_t MergeLogRuns();
  // Publishes the merged runs as shadow rows and clears them.
  void PublishShadows(size_t overlay_entries);
  // Writes core ⊕ shadows ⊕ merged runs into a new (still private) core in
  // one pass in id order. When `recompute_strengths`, per-node strength is
  // re-summed over the folded row (the legacy post-scale consolidation
  // behavior); otherwise the cached values carry over bit-identically.
  std::shared_ptr<GraphCore> FoldCore(bool recompute_strengths) const;
  void InstallCore(std::shared_ptr<const GraphCore> core);
  void RecomputeTotals();
  void CompactArena();

  std::shared_ptr<const GraphCore> core_;
  common::Arena<Neighbor> row_arena_;
  common::FlatMap<NodeId, ShadowRow> rows_;
  common::FlatMap<NodeId, double> self_ovl_;
  std::vector<DeltaEdge> log_;

  size_t num_nodes_ = 0;
  size_t degree_sum_ = 0;       // Σ_v |row(v)|, maintained incrementally.
  size_t overlay_entries_ = 0;  // Σ live shadow-row lengths.
  double total_weight_ = 0.0;
  bool caches_dirty_ = false;  // total_weight_ needs the O(N) refresh.
  bool scaled_ = false;  // ScaleWeights ran; next Consolidate re-sums strengths.
  uint64_t generation_ = 0;

  // Consolidation scratch, reused across calls (left empty, so copies of
  // the graph copy no contents).
  std::vector<Neighbor> scratch_halves_;  // One owner's logged halves.
  std::vector<MergedRun> scratch_runs_;
  std::vector<Neighbor> scratch_merged_;
};

}  // namespace txallo::graph
