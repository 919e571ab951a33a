// Deterministic Louvain community detection (Blondel et al. 2008), used as
// the initialization phase of G-TxAllo (Algorithm 1, line 1).
//
// Determinism requirements (paper §IV-A / §V-B): all miners must compute an
// identical allocation without a consensus round, so the node visiting order
// is an explicit input and every tie breaks toward the smaller community id.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/graph/graph.h"

namespace txallo::graph {

/// Options for the Louvain pass.
struct LouvainOptions {
  /// Modularity resolution (1.0 = classic modularity).
  double resolution = 1.0;
  /// Stop a local-moving sweep when total modularity gain falls below this.
  double min_modularity_gain = 1e-7;
  /// Safety valve on local-moving sweeps per level.
  int max_sweeps_per_level = 32;
  /// Safety valve on aggregation levels.
  int max_levels = 32;
};

/// Result of the Louvain pass.
struct LouvainResult {
  /// community[v] in [0, num_communities) for every node v. Community ids
  /// are compacted and ordered by first appearance in node-id order.
  std::vector<uint32_t> community;
  uint32_t num_communities = 0;
  int levels = 0;
};

/// Runs Louvain on `graph`, visiting nodes in `node_order` (a permutation of
/// [0, num_nodes)). The same graph and order always yield the same result.
/// Precondition: graph.consolidated(). A refrozen graph (every row in the
/// CSR core) reads fastest.
///
/// Local moving skips the row of a *settled* node: one whose neighbours
/// were all in its community at its last visit, none of which has moved
/// since, so staying put is its only choice. The visit still detaches and
/// re-attaches k_v to its community's total, because that FP round trip
/// can change the total's last bit; the result is bit-identical to
/// visiting every node in full (tests/graph/louvain_equivalence_test.cc).
/// Level 0 copies the graph's rows once, in `node_order`, so local moving
/// reads them in sequence (an order that is not a permutation keeps the
/// id layout). No level visits a node without an edge: it stays alone in
/// its community, and the round trip on that total, its own k_v, is
/// exact. Each aggregation level is built in one CSR buffer. The
/// partition's modularity is not computed here; call Modularity() for it.
LouvainResult RunLouvain(const TransactionGraph& graph,
                         const std::vector<NodeId>& node_order,
                         const LouvainOptions& options = {});

/// Modularity of an arbitrary partition of `graph` (for tests/diagnostics).
/// Self-loops count once in community-internal weight and twice in degree,
/// following the standard convention.
/// Precondition: graph.consolidated().
double Modularity(const TransactionGraph& graph,
                  const std::vector<uint32_t>& community,
                  double resolution = 1.0);

}  // namespace txallo::graph
