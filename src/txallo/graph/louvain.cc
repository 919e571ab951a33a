#include "txallo/graph/louvain.h"

#include <algorithm>
#include <cstddef>

namespace txallo::graph {

namespace {

// Working representation of one aggregation level: CSR adjacency (no
// self-loop entries) plus per-node self-loop weight. The adjacency matrix
// convention is A_vv = 2 * self_loop[v], so k_v = strength_v + 2*self_v and
// 2m = sum_v k_v. row_of[v] is node v's row when level 0 is laid out in
// its visit order; row v is node v's when row_of is empty (every
// aggregated level, which visits in id order). self_loop and degree are
// indexed by node id.
struct LevelGraph {
  std::vector<size_t> offsets;
  std::vector<uint32_t> neighbors;
  std::vector<double> weights;
  std::vector<double> self_loop;
  std::vector<double> degree;  // k_v
  std::vector<uint32_t> row_of;
  double m2 = 0.0;             // 2m

  size_t num_nodes() const { return self_loop.size(); }
  size_t Row(size_t v) const { return row_of.empty() ? v : row_of[v]; }
};

// Level 0: the transaction graph's own rows. On entry `*order` is the
// caller's visit order; on return it lists the nodes local moving visits,
// the same order without its edgeless nodes (see RunLouvain). When the
// caller's order is a permutation of the nodes, the visited nodes' rows
// are copied in visit order, so local moving reads them in sequence, and
// every edgeless node maps to an empty row after them; otherwise the rows
// keep node-id order. m2 still sums the degrees in node-id order.
LevelGraph FromGraph(const TransactionGraph& graph,
                     std::vector<uint32_t>* order) {
  LevelGraph lg;
  const size_t n = graph.num_nodes();
  lg.self_loop.resize(n);
  lg.degree.resize(n);
  for (size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    lg.self_loop[v] = graph.SelfLoop(id);
    lg.degree[v] = graph.Strength(id) + 2.0 * lg.self_loop[v];
    lg.m2 += lg.degree[v];
  }

  bool permutation = order->size() == n;
  std::vector<uint8_t> seen(permutation ? n : 0, 0);
  std::vector<uint32_t> visit;
  visit.reserve(order->size());
  for (const uint32_t v : *order) {
    if (permutation) {
      permutation = v < n && seen[v] == 0;
      if (permutation) seen[v] = 1;
    }
    if (v >= n || !graph.Neighbors(v).empty()) visit.push_back(v);
  }
  *order = std::move(visit);
  if (permutation) {
    lg.row_of.assign(n, static_cast<uint32_t>(order->size()));
    for (size_t i = 0; i < order->size(); ++i) {
      lg.row_of[(*order)[i]] = static_cast<uint32_t>(i);
    }
  }

  // The node whose row is `row`, or n for an empty row past the visited.
  const auto node_at = [&](size_t row) -> size_t {
    if (lg.row_of.empty()) return row;
    return row < order->size() ? (*order)[row] : n;
  };
  const auto row_size = [&](size_t row) -> size_t {
    const size_t v = node_at(row);
    return v < n ? graph.Neighbors(static_cast<NodeId>(v)).size() : 0;
  };
  lg.offsets.resize(n + 1, 0);
  size_t total = 0;
  for (size_t row = 0; row < n; ++row) {
    total += row_size(row);
    lg.offsets[row + 1] = total;
  }
  lg.neighbors.resize(total);
  lg.weights.resize(total);
  for (size_t row = 0; row < n && node_at(row) < n; ++row) {
    size_t pos = lg.offsets[row];
    for (const Neighbor& nb :
         graph.Neighbors(static_cast<NodeId>(node_at(row)))) {
      lg.neighbors[pos] = nb.node;
      lg.weights[pos] = nb.weight;
      ++pos;
    }
  }
  return lg;
}

// One complete local-moving phase. Returns the total (scaled) modularity
// gain accumulated over all sweeps. `community` is updated in place.
double LocalMoving(const LevelGraph& g, const std::vector<uint32_t>& order,
                   const LouvainOptions& options,
                   std::vector<uint32_t>* community) {
  const size_t n = g.num_nodes();
  std::vector<double> comm_total(n, 0.0);  // Σ_tot per community.
  for (size_t v = 0; v < n; ++v) comm_total[(*community)[v]] += g.degree[v];

  // Scratch accumulation of w(v -> community), reset via touched list.
  std::vector<double> weight_to(n, 0.0);
  std::vector<uint32_t> touched;
  touched.reserve(256);
  // settled[v]: at v's last visit every neighbour was in v's community,
  // and none has moved since, so v has no candidate but staying put. A
  // move clears the flag of every neighbour of the node that moved.
  std::vector<uint8_t> settled(n, 0);

  const double inv_m2 = g.m2 > 0.0 ? 1.0 / g.m2 : 0.0;
  double total_gain = 0.0;
  for (int sweep = 0; sweep < options.max_sweeps_per_level; ++sweep) {
    double sweep_gain = 0.0;
    for (size_t i = 0; i < order.size(); ++i) {
      const uint32_t v = order[i];
      // With row_of set the rows follow `order`, so v's row is row i.
      const size_t row = g.row_of.empty() ? v : i;
      const uint32_t from = (*community)[v];
      if (settled[v] != 0) {
        // The detach and re-attach of a visit that stays put: subtracting
        // then adding k_v need not give back the same bits, so it runs.
        comm_total[from] -= g.degree[v];
        comm_total[from] += g.degree[v];
        continue;
      }
      // Accumulate edge weight from v to each adjacent community.
      touched.clear();
      for (size_t e = g.offsets[row]; e < g.offsets[row + 1]; ++e) {
        uint32_t c = (*community)[g.neighbors[e]];
        if (weight_to[c] == 0.0) touched.push_back(c);
        weight_to[c] += g.weights[e];
      }
      // Detach v from its community for the comparison.
      comm_total[from] -= g.degree[v];
      // Score of staying put; ties break toward the smaller community id so
      // the outcome is independent of the touched-list order.
      uint32_t best = from;
      double best_score =
          weight_to[from] -
          options.resolution * g.degree[v] * comm_total[from] * inv_m2;
      for (uint32_t c : touched) {
        if (c == from) continue;
        double score = weight_to[c] - options.resolution * g.degree[v] *
                                          comm_total[c] * inv_m2;
        if (score > best_score + 1e-15) {
          best_score = score;
          best = c;
        } else if (score >= best_score - 1e-15 && c < best) {
          best = c;
        }
      }
      if (best != from) {
        double gain =
            (best_score - (weight_to[from] -
                           options.resolution * g.degree[v] *
                               comm_total[from] * inv_m2)) *
            2.0 * inv_m2;
        if (gain > 0.0) sweep_gain += gain;
        (*community)[v] = best;
      }
      const uint32_t to = (*community)[v];
      comm_total[to] += g.degree[v];
      settled[v] = std::all_of(touched.begin(), touched.end(),
                               [to](uint32_t c) { return c == to; });
      if (to != from) {
        for (size_t e = g.offsets[row]; e < g.offsets[row + 1]; ++e) {
          settled[g.neighbors[e]] = 0;
        }
      }
      for (uint32_t c : touched) weight_to[c] = 0.0;
    }
    total_gain += sweep_gain;
    if (sweep_gain < options.min_modularity_gain) break;
  }
  return total_gain;
}

// Renumbers communities to a dense range [0, count) by first appearance in
// node-id order; returns the count.
uint32_t CompactCommunities(std::vector<uint32_t>* community) {
  std::vector<uint32_t> remap(community->size(), UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t& c : *community) {
    if (remap[c] == UINT32_MAX) remap[c] = next++;
    c = remap[c];
  }
  return next;
}

// Builds the aggregated graph whose nodes are the (compacted) communities.
// Each community's inter-community entries go into one buffer in v-then-row
// order, then each row is sorted by neighbour and its duplicates merged in
// place, so every sort sees the same sequence a row of its own would.
LevelGraph Aggregate(const LevelGraph& g,
                     const std::vector<uint32_t>& community,
                     uint32_t num_communities) {
  LevelGraph out;
  const size_t nc = num_communities;
  out.self_loop.assign(nc, 0.0);
  out.degree.assign(nc, 0.0);

  // start[c]: where community c's unmerged entries begin.
  std::vector<size_t> start(nc + 1, 0);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const uint32_t cv = community[v];
    const size_t row = g.Row(v);
    for (size_t e = g.offsets[row]; e < g.offsets[row + 1]; ++e) {
      if (community[g.neighbors[e]] != cv) ++start[cv + 1];
    }
  }
  for (size_t c = 0; c < nc; ++c) start[c + 1] += start[c];

  std::vector<Neighbor> entries(start[nc]);
  std::vector<size_t> fill(start.begin(), start.end() - 1);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const uint32_t cv = community[v];
    out.self_loop[cv] += g.self_loop[v];
    const size_t row = g.Row(v);
    for (size_t e = g.offsets[row]; e < g.offsets[row + 1]; ++e) {
      const uint32_t cu = community[g.neighbors[e]];
      if (cu == cv) {
        // Each intra-community pair is visited from both endpoints; halve.
        out.self_loop[cv] += 0.5 * g.weights[e];
      } else {
        entries[fill[cv]++] = {cu, g.weights[e]};
      }
    }
  }

  // Consolidate each row (sort by neighbour, merge duplicates), moving it
  // down to its final offset; a merged row never outruns its unmerged one.
  out.offsets.resize(nc + 1, 0);
  for (uint32_t c = 0; c < nc; ++c) {
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(start[c]),
              entries.begin() + static_cast<std::ptrdiff_t>(start[c + 1]),
              [](const Neighbor& a, const Neighbor& b) {
                return a.node < b.node;
              });
    const size_t first = out.offsets[c];
    size_t w = first;
    for (size_t r = start[c]; r < start[c + 1]; ++r) {
      if (w > first && entries[w - 1].node == entries[r].node) {
        entries[w - 1].weight += entries[r].weight;
      } else {
        entries[w++] = entries[r];
      }
    }
    out.offsets[c + 1] = w;
  }
  out.neighbors.resize(out.offsets[nc]);
  out.weights.resize(out.offsets[nc]);
  for (uint32_t c = 0; c < nc; ++c) {
    double strength = 0.0;
    for (size_t pos = out.offsets[c]; pos < out.offsets[c + 1]; ++pos) {
      out.neighbors[pos] = entries[pos].node;
      out.weights[pos] = entries[pos].weight;
      strength += entries[pos].weight;
    }
    out.degree[c] = strength + 2.0 * out.self_loop[c];
    out.m2 += out.degree[c];
  }
  return out;
}

}  // namespace

LouvainResult RunLouvain(const TransactionGraph& graph,
                         const std::vector<NodeId>& node_order,
                         const LouvainOptions& options) {
  LouvainResult result;
  const size_t n = graph.num_nodes();
  result.community.resize(n);
  for (size_t v = 0; v < n; ++v) result.community[v] = static_cast<uint32_t>(v);
  if (n == 0) return result;

  // Local moving visits no node without an edge. Such a node is no node's
  // neighbour, so it stays alone in its community: it never moves, nothing
  // moves in, and its visit's round trip x − k_v + k_v on a total x == k_v
  // gives x back exactly.
  std::vector<uint32_t> order(node_order.begin(), node_order.end());
  LevelGraph level = FromGraph(graph, &order);
  std::vector<uint32_t> level_comm(n);
  for (size_t v = 0; v < n; ++v) level_comm[v] = static_cast<uint32_t>(v);

  for (int lvl = 0; lvl < options.max_levels; ++lvl) {
    double gain = LocalMoving(level, order, options, &level_comm);
    uint32_t nc = CompactCommunities(&level_comm);
    // Fold this level's assignment into the global one.
    for (size_t v = 0; v < n; ++v) {
      result.community[v] = level_comm[result.community[v]];
    }
    ++result.levels;
    if (nc == level.num_nodes() || gain < options.min_modularity_gain) break;
    level = Aggregate(level, level_comm, nc);
    level_comm.resize(nc);
    for (uint32_t c = 0; c < nc; ++c) level_comm[c] = c;
    order.clear();
    for (uint32_t c = 0; c < nc; ++c) {
      if (level.offsets[c + 1] != level.offsets[c]) order.push_back(c);
    }
  }

  result.num_communities = CompactCommunities(&result.community);
  return result;
}

double Modularity(const TransactionGraph& graph,
                  const std::vector<uint32_t>& community, double resolution) {
  const size_t n = graph.num_nodes();
  if (n == 0) return 0.0;
  uint32_t nc = 0;
  for (uint32_t c : community) nc = std::max(nc, c + 1);
  std::vector<double> internal(nc, 0.0);  // Σ_{u,v in c} A_uv (ordered pairs).
  std::vector<double> total(nc, 0.0);     // Σ_{v in c} k_v.
  double m2 = 0.0;
  for (size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    const uint32_t cv = community[v];
    const double k = graph.Strength(id) + 2.0 * graph.SelfLoop(id);
    total[cv] += k;
    m2 += k;
    internal[cv] += 2.0 * graph.SelfLoop(id);
    for (const Neighbor& nb : graph.Neighbors(id)) {
      if (community[nb.node] == cv) internal[cv] += nb.weight;
    }
  }
  if (m2 <= 0.0) return 0.0;
  double q = 0.0;
  for (uint32_t c = 0; c < nc; ++c) {
    q += internal[c] / m2 - resolution * (total[c] / m2) * (total[c] / m2);
  }
  return q;
}

}  // namespace txallo::graph
