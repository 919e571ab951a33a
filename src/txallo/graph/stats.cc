#include "txallo/graph/stats.h"

#include <algorithm>
#include <numeric>

namespace txallo::graph {

GraphStats ComputeGraphStats(const TransactionGraph& graph) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  stats.total_weight = graph.TotalWeight();
  if (stats.num_nodes == 0) return stats;

  size_t low_degree = 0;
  double degree_sum = 0.0;
  std::vector<double> strengths(stats.num_nodes);
  for (size_t v = 0; v < stats.num_nodes; ++v) {
    const NodeId id = static_cast<NodeId>(v);
    const size_t deg = graph.Neighbors(id).size();
    degree_sum += static_cast<double>(deg);
    stats.max_degree = std::max(stats.max_degree, deg);
    if (deg <= 2) ++low_degree;
    // "activity" of a node: incident weight incl. self-loops.
    const double activity = graph.Strength(id) + graph.SelfLoop(id);
    strengths[v] = activity;
    if (activity > stats.max_strength) {
      stats.max_strength = activity;
      stats.max_strength_node = id;
    }
  }
  stats.mean_degree = degree_sum / static_cast<double>(stats.num_nodes);
  stats.low_degree_fraction =
      static_cast<double>(low_degree) / static_cast<double>(stats.num_nodes);
  if (stats.total_weight > 0.0) {
    stats.hub_weight_share = stats.max_strength / stats.total_weight;
  }

  // Gini over strengths.
  std::sort(strengths.begin(), strengths.end());
  double cum = 0.0, weighted = 0.0;
  for (size_t i = 0; i < strengths.size(); ++i) {
    weighted += static_cast<double>(i + 1) * strengths[i];
    cum += strengths[i];
  }
  if (cum > 0.0) {
    const double n = static_cast<double>(strengths.size());
    stats.strength_gini = (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
  }
  return stats;
}

std::vector<uint64_t> DegreeHistogramLog2(const TransactionGraph& graph) {
  std::vector<uint64_t> hist;
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    size_t deg = graph.Neighbors(static_cast<NodeId>(v)).size();
    size_t bucket = 0;
    while ((size_t{1} << (bucket + 1)) <= deg) ++bucket;
    if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
    ++hist[bucket];
  }
  return hist;
}

size_t CountConnectedComponents(const TransactionGraph& graph) {
  const size_t n = graph.num_nodes();
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  // Iterative union-find with path halving.
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t v = 0; v < n; ++v) {
    for (const Neighbor& nb : graph.Neighbors(static_cast<NodeId>(v))) {
      uint32_t rv = find(static_cast<uint32_t>(v));
      uint32_t ru = find(nb.node);
      if (rv != ru) parent[std::max(rv, ru)] = std::min(rv, ru);
    }
  }
  size_t components = 0;
  for (size_t v = 0; v < n; ++v) {
    if (find(static_cast<uint32_t>(v)) == v) ++components;
  }
  return components;
}

}  // namespace txallo::graph
