#include "txallo/allocator/contrib.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace txallo::allocator {

Result<alloc::Allocation> PartitionByContribution(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order, uint32_t num_shards,
    const ContribOptions& options) {
  const size_t n = graph.num_nodes();
  alloc::Allocation allocation(n, num_shards);
  if (n == 0) return allocation;

  // Contribution = weighted activity. Rank in the deterministic node order
  // so equal contributions break ties identically on every node (§V-B: all
  // miners must derive the same mapping without a consensus round).
  std::vector<double> contribution(n, 0.0);
  double total_contribution = 0.0;
  for (size_t v = 0; v < n; ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    contribution[v] = graph.Strength(id) + graph.SelfLoop(id);
    total_contribution += contribution[v];
  }
  std::vector<uint32_t> rank(n, 0);
  for (size_t position = 0; position < node_order.size(); ++position) {
    const graph::NodeId v = node_order[position];
    if (static_cast<size_t>(v) < n) rank[v] = static_cast<uint32_t>(position);
  }
  std::vector<graph::NodeId> by_contribution(n);
  for (size_t v = 0; v < n; ++v) {
    by_contribution[v] = static_cast<graph::NodeId>(v);
  }
  std::sort(by_contribution.begin(), by_contribution.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              if (contribution[a] != contribution[b]) {
                return contribution[a] > contribution[b];
              }
              return rank[a] < rank[b];
            });

  // Greedy stress-aware stream. capacity > 0 even for an all-isolated
  // graph (total contribution 0): fall back to spreading by count.
  const double capacity = std::max(
      options.imbalance * total_contribution / num_shards,
      std::numeric_limits<double>::min());
  std::vector<double> load(num_shards, 0.0);
  std::vector<double> affinity(num_shards, 0.0);
  for (graph::NodeId v : by_contribution) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    for (const graph::Neighbor& edge : graph.Neighbors(v)) {
      const alloc::ShardId s = allocation.shard_of(edge.node);
      if (s < num_shards) affinity[s] += edge.weight;
    }
    alloc::ShardId best = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (alloc::ShardId s = 0; s < num_shards; ++s) {
      const double fill = load[s] / capacity;
      const double score =
          affinity[s] * std::max(0.0, 1.0 - fill) -
          options.stress_weight * std::max(0.0, fill - 1.0);
      const bool better =
          score > best_score ||
          (score == best_score &&
           (load[s] < load[best] || (load[s] == load[best] && s < best)));
      if (better) {
        best = s;
        best_score = score;
      }
    }
    allocation.Assign(v, best);
    // Isolated accounts still stress a shard a little, so padding spreads
    // round-robin-by-load instead of piling onto shard 0.
    load[best] += std::max(contribution[v], capacity * 1e-9);
  }
  return allocation;
}

}  // namespace txallo::allocator
