// G-TxAllo (paper Algorithm 1): the global allocation algorithm.
//
// Phase 1 (initialization): run deterministic Louvain on the transaction
// graph; keep the k communities with the largest workload σ; absorb every
// node of the remaining small communities into one of the k via the best
// join gain (Eq. 6), falling back to all k communities when a node has no
// assigned neighbor.
//
// Phase 2 (optimization): sweep all nodes in the deterministic order; move
// each to the candidate community C_v (Eq. 9) with the largest positive
// Δ(i,p,q)Λ (Eq. 8); repeat sweeps while the accumulated gain ≥ ε.
//
// Complexity: O(N log N) initialization + O(N·k) per optimization sweep at
// worst. After the first sweep, a sweep visits only the nodes that can
// still move, and re-reads a node's row only when a neighbour moved since
// its last visit.
// Every step is deterministic given the node order (paper §V-B).
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/graph_metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/common/status.h"
#include "txallo/graph/graph.h"
#include "txallo/graph/louvain.h"

namespace txallo::core {

/// Tuning knobs beyond AllocationParams.
struct GlobalOptions {
  graph::LouvainOptions louvain;
  /// Safety valve on optimization sweeps (the ε criterion normally stops
  /// the loop long before this).
  int max_sweeps = 64;
  /// Disables the candidate-community restriction of Eq. 9 and searches all
  /// k communities for every node. Only for the ablation bench: slower,
  /// same-or-marginally-different results.
  bool search_all_communities = false;
  /// Skips the Louvain initialization and seeds shards by account hash
  /// instead. Only for the ablation bench.
  bool hash_initialization = false;
};

/// Run report for diagnostics and the running-time figures.
struct GlobalRunInfo {
  double louvain_seconds = 0.0;
  double init_seconds = 0.0;       // Small-community absorption.
  double optimize_seconds = 0.0;
  double total_seconds = 0.0;
  uint32_t louvain_communities = 0;
  int sweeps = 0;
  double initial_throughput = 0.0;  // After phase 1.
  double final_throughput = 0.0;    // After convergence.
};

/// Runs G-TxAllo over a consolidated transaction graph.
///
/// `node_order` is the deterministic iteration order (a permutation of
/// [0, graph.num_nodes()), typically AccountRegistry::IdsInHashOrder()).
/// Returns the account-shard mapping; optionally fills `info`.
Result<alloc::Allocation> RunGlobalTxAllo(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order,
    const alloc::AllocationParams& params, const GlobalOptions& options = {},
    GlobalRunInfo* info = nullptr);

/// The phase-1b primitive, shared with A-TxAllo (Algorithm 2, lines 1-8):
/// every node of `node_order` that is still unassigned joins the community
/// with the best join gain (Eq. 6); the candidate set falls back to all k
/// communities when the node has no assigned neighbor. `allocation` and
/// `state` are updated in place. Join gains read a per-call cache of each
/// community's clamped throughput, refreshed after every join.
///
/// A node with no edge and no self-loop joins shard 0 without a gain scan:
/// its join gain is exactly 0 on every shard, so the scan would keep shard
/// 0, and the join adds exactly 0 to σ/Λ̂. A node with only a self-loop
/// takes the full scan.
void AssignUnassignedNodes(const graph::TransactionGraph& graph,
                           const std::vector<graph::NodeId>& node_order,
                           const alloc::AllocationParams& params,
                           alloc::Allocation* allocation,
                           alloc::CommunityState* state);

/// The phase-2 optimization loop, exposed separately because A-TxAllo and
/// the ablations reuse it. Sweeps `sweep_nodes` (in order) until the total
/// gain of a sweep is < ε or `max_sweeps` is hit. `allocation` and `state`
/// are updated in place. Returns the number of sweeps executed.
///
/// On entry it copies the rows of `sweep_nodes` once into one array in
/// sweep order, with each node's (ℓ, s), so every sweep reads rows
/// sequentially; entries keep Neighbors(v)'s order, so each w{v, X} sums
/// the same weights in the same order as over the graph. It also caches
/// every community's clamped throughput (the `before` of each gain) and
/// refreshes only p and q after a move. Both live for this call only, and
/// the moves, σ/Λ̂ and sweep count are bit-identical to evaluating the
/// graph and the clamp afresh (tests/core/sweep_equivalence_test.cc).
///
/// A node is *settled* when every assigned neighbour is in its own shard
/// p: C_v holds p alone, so it cannot move whatever σ/Λ̂ are. A sweep walks
/// a bitmap over the positions of `sweep_nodes` in position order; settling
/// a node clears its bit, and a move sets the bits of the moved node's
/// neighbours. A bit set ahead of the walk is visited in the same sweep,
/// one behind it in the next, exactly the visits of an in-order scan that
/// skips settled nodes. Under `search_all_communities` (any shard is a
/// candidate), or when `sweep_nodes` lists a node twice, every bit stays
/// set.
///
/// A visit evaluates a node over its touched list with each w{v, X}: the
/// communities in the order its row first reaches them. The list is saved
/// in min(degree, k) slots beside the row, and while no neighbour moves a
/// visit reads it back instead of re-reading the row; a move makes every
/// neighbour re-read its row. Join gains are computed per listed community
/// in list order, so near-ties break as over a fresh sum. Only the ablation
/// fills all k gains. The results stay bit-identical: a skipped visit
/// could not move, and a saved list is the list the row would give. When
/// `sweep_nodes` lists a node twice, nothing is saved.
int OptimizeSweeps(const graph::TransactionGraph& graph,
                   const std::vector<graph::NodeId>& sweep_nodes,
                   const alloc::AllocationParams& params,
                   const GlobalOptions& options, alloc::Allocation* allocation,
                   alloc::CommunityState* state);

}  // namespace txallo::core
