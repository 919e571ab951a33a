// Louvain's local moving skips the visits of settled nodes (every neighbour
// already in the node's community, none moved since), and Aggregate builds
// each level in one CSR buffer instead of one heap row per community. Both
// are pure speed changes: on seeded graphs, the communities, their count
// and the level count must equal those of the loops kept verbatim below as
// the reference. Cases cover hubs, isolated nodes, self-loops, three or
// more levels, resolutions other than 1, and graphs built over one or many
// consolidations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "txallo/common/rng.h"
#include "txallo/graph/graph.h"
#include "txallo/graph/louvain.h"

namespace txallo::graph {
namespace {

// --- Reference: the Louvain pass as it was before the settled skip and
// the one-buffer aggregation ---

struct LevelGraph {
  std::vector<size_t> offsets;
  std::vector<uint32_t> neighbors;
  std::vector<double> weights;
  std::vector<double> self_loop;
  std::vector<double> degree;  // k_v
  double m2 = 0.0;             // 2m

  size_t num_nodes() const { return self_loop.size(); }
};

LevelGraph FromGraph(const TransactionGraph& graph) {
  LevelGraph lg;
  const size_t n = graph.num_nodes();
  lg.offsets.resize(n + 1, 0);
  lg.self_loop.resize(n);
  lg.degree.resize(n);
  size_t total = 0;
  for (size_t v = 0; v < n; ++v) {
    total += graph.Neighbors(static_cast<NodeId>(v)).size();
    lg.offsets[v + 1] = total;
  }
  lg.neighbors.resize(total);
  lg.weights.resize(total);
  for (size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    size_t pos = lg.offsets[v];
    for (const Neighbor& nb : graph.Neighbors(id)) {
      lg.neighbors[pos] = nb.node;
      lg.weights[pos] = nb.weight;
      ++pos;
    }
    lg.self_loop[v] = graph.SelfLoop(id);
    lg.degree[v] = graph.Strength(id) + 2.0 * lg.self_loop[v];
    lg.m2 += lg.degree[v];
  }
  return lg;
}

double ReferenceLocalMoving(const LevelGraph& g,
                            const std::vector<uint32_t>& order,
                            const LouvainOptions& options,
                            std::vector<uint32_t>* community) {
  const size_t n = g.num_nodes();
  std::vector<double> comm_total(n, 0.0);
  for (size_t v = 0; v < n; ++v) comm_total[(*community)[v]] += g.degree[v];

  std::vector<double> weight_to(n, 0.0);
  std::vector<uint32_t> touched;
  touched.reserve(256);

  const double inv_m2 = g.m2 > 0.0 ? 1.0 / g.m2 : 0.0;
  double total_gain = 0.0;
  for (int sweep = 0; sweep < options.max_sweeps_per_level; ++sweep) {
    double sweep_gain = 0.0;
    for (uint32_t v : order) {
      const uint32_t from = (*community)[v];
      touched.clear();
      for (size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        uint32_t c = (*community)[g.neighbors[e]];
        if (weight_to[c] == 0.0) touched.push_back(c);
        weight_to[c] += g.weights[e];
      }
      comm_total[from] -= g.degree[v];
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
      comm_total[(*community)[v]] += g.degree[v];
      for (uint32_t c : touched) weight_to[c] = 0.0;
    }
    total_gain += sweep_gain;
    if (sweep_gain < options.min_modularity_gain) break;
  }
  return total_gain;
}

uint32_t ReferenceCompactCommunities(std::vector<uint32_t>* community) {
  std::vector<uint32_t> remap(community->size(), UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t& c : *community) {
    if (remap[c] == UINT32_MAX) remap[c] = next++;
    c = remap[c];
  }
  return next;
}

LevelGraph ReferenceAggregate(const LevelGraph& g,
                              const std::vector<uint32_t>& community,
                              uint32_t num_communities) {
  LevelGraph out;
  const size_t nc = num_communities;
  out.self_loop.assign(nc, 0.0);
  out.degree.assign(nc, 0.0);

  std::vector<std::vector<Neighbor>> rows(nc);
  for (uint32_t c = 0; c < nc; ++c) rows[c].reserve(4);

  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const uint32_t cv = community[v];
    out.self_loop[cv] += g.self_loop[v];
    for (size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const uint32_t cu = community[g.neighbors[e]];
      if (cu == cv) {
        out.self_loop[cv] += 0.5 * g.weights[e];
      } else {
        rows[cv].push_back({cu, g.weights[e]});
      }
    }
  }

  out.offsets.resize(nc + 1, 0);
  for (uint32_t c = 0; c < nc; ++c) {
    std::vector<Neighbor>& row = rows[c];
    std::sort(row.begin(), row.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.node < b.node;
              });
    size_t w = 0;
    for (size_t r = 0; r < row.size(); ++r) {
      if (w > 0 && row[w - 1].node == row[r].node) {
        row[w - 1].weight += row[r].weight;
      } else {
        row[w++] = row[r];
      }
    }
    row.resize(w);
    out.offsets[c + 1] = out.offsets[c] + w;
  }
  out.neighbors.resize(out.offsets[nc]);
  out.weights.resize(out.offsets[nc]);
  for (uint32_t c = 0; c < nc; ++c) {
    size_t pos = out.offsets[c];
    double strength = 0.0;
    for (const Neighbor& nb : rows[c]) {
      out.neighbors[pos] = nb.node;
      out.weights[pos] = nb.weight;
      strength += nb.weight;
      ++pos;
    }
    out.degree[c] = strength + 2.0 * out.self_loop[c];
    out.m2 += out.degree[c];
  }
  return out;
}

LouvainResult ReferenceLouvain(const TransactionGraph& graph,
                               const std::vector<NodeId>& node_order,
                               const LouvainOptions& options) {
  LouvainResult result;
  const size_t n = graph.num_nodes();
  result.community.resize(n);
  for (size_t v = 0; v < n; ++v) result.community[v] = static_cast<uint32_t>(v);
  if (n == 0) return result;

  LevelGraph level = FromGraph(graph);
  std::vector<uint32_t> level_comm(n);
  for (size_t v = 0; v < n; ++v) level_comm[v] = static_cast<uint32_t>(v);

  std::vector<uint32_t> order(node_order.begin(), node_order.end());

  for (int lvl = 0; lvl < options.max_levels; ++lvl) {
    double gain = ReferenceLocalMoving(level, order, options, &level_comm);
    uint32_t nc = ReferenceCompactCommunities(&level_comm);
    for (size_t v = 0; v < n; ++v) {
      result.community[v] = level_comm[result.community[v]];
    }
    ++result.levels;
    if (nc == level.num_nodes() || gain < options.min_modularity_gain) break;
    level = ReferenceAggregate(level, level_comm, nc);
    level_comm.resize(nc);
    for (uint32_t c = 0; c < nc; ++c) level_comm[c] = c;
    order.resize(nc);
    for (uint32_t c = 0; c < nc; ++c) order[c] = c;
  }

  result.num_communities = ReferenceCompactCommunities(&result.community);
  return result;
}

// --- Fixtures ---------------------------------------------------------------

constexpr uint32_t kNodes = 720;
constexpr uint32_t kIsolated = 16;  // The last ids never get an edge.
constexpr uint32_t kBlock = 8;      // Dense blocks...
constexpr uint32_t kGroup = 6;      // ...grouped six to a looser group.
constexpr uint32_t kHubs = 4;       // Ids 0..3 also trade with everyone.

// A three-tier planted structure, so Louvain merges blocks into groups at
// a later level than it merges nodes into blocks: most edges stay in a
// block, some in its group, a few anywhere, and every tenth touches a hub.
// Weights are 1/π shares so sums are not exact; some edges are self-loops.
void AddRandomEdge(Rng* rng, TransactionGraph* g) {
  const uint32_t active = kNodes - kIsolated;
  const auto u = static_cast<NodeId>(rng->NextBounded(active));
  NodeId v = static_cast<NodeId>(rng->NextBounded(active));
  const uint64_t tier = rng->NextBounded(10);
  if (tier == 0) {
    v = static_cast<NodeId>(rng->NextBounded(kHubs));
  } else if (tier < 6) {
    v = static_cast<NodeId>(u - u % kBlock + v % kBlock);
  } else if (tier < 9) {
    const uint32_t span = kBlock * kGroup;
    v = static_cast<NodeId>(u - u % span + v % span);
  }
  if (v >= active) v = u;
  const double shares[] = {1.0, 0.5, 1.0 / 3.0, 0.1};
  const double w = shares[rng->NextBounded(4)];
  if (u == v) {
    g->AddSelfLoop(u, w);
  } else {
    g->AddEdge(u, v, w);
  }
}

TransactionGraph RandomGraph(Rng* rng, int edges) {
  TransactionGraph g;
  g.EnsureNodeCount(kNodes);
  for (int e = 0; e < edges; ++e) AddRandomEdge(rng, &g);
  g.Consolidate();
  return g;
}

std::vector<NodeId> ShuffledOrder(Rng* rng, size_t n) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return order;
}

// Runs the reference and the library on the same input and compares them.
// Returns the level count.
int CheckBothPaths(const TransactionGraph& g, const std::vector<NodeId>& order,
                   const LouvainOptions& options) {
  const LouvainResult ref = ReferenceLouvain(g, order, options);
  const LouvainResult got = RunLouvain(g, order, options);
  EXPECT_EQ(ref.community, got.community);
  EXPECT_EQ(ref.num_communities, got.num_communities);
  EXPECT_EQ(ref.levels, got.levels);
  return ref.levels;
}

// --- Cases ------------------------------------------------------------------

TEST(LouvainEquivalenceTest, RefrozenGraphs) {
  // The G-TxAllo shape: a graph consolidated once, every node in a
  // shuffled order.
  int max_levels = 0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const double resolution : {0.5, 1.0, 1.7}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " resolution=" + std::to_string(resolution));
      Rng rng(100 + seed);
      TransactionGraph g = RandomGraph(&rng, 5000);
      LouvainOptions options;
      options.resolution = resolution;
      max_levels = std::max(
          max_levels,
          CheckBothPaths(g, ShuffledOrder(&rng, g.num_nodes()), options));
    }
  }
  // Aggregate ran on at least two levels' output.
  EXPECT_GE(max_levels, 3);
}

TEST(LouvainEquivalenceTest, GraphsBuiltOverManyConsolidations) {
  // The A-TxAllo shape: a graph built over many consolidations, the later
  // ones merging small logs into a large core.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const double resolution : {0.8, 1.0, 2.5}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " resolution=" + std::to_string(resolution));
      Rng rng(200 + seed);
      TransactionGraph g = RandomGraph(&rng, 4000);
      for (int batch = 0; batch < 3; ++batch) {
        for (int e = 0; e < 20; ++e) AddRandomEdge(&rng, &g);
        g.Consolidate();
      }
      LouvainOptions options;
      options.resolution = resolution;
      CheckBothPaths(g, ShuffledOrder(&rng, g.num_nodes()), options);
    }
  }
}

TEST(LouvainEquivalenceTest, SparseGraphsAndTightCaps) {
  // Few edges leave many nodes settled alone or in pairs from the first
  // sweep on; tight sweep and level caps stop both passes mid-way.
  for (const int max_sweeps : {1, 2, 32}) {
    for (const int max_levels : {1, 2, 32}) {
      SCOPED_TRACE("max_sweeps=" + std::to_string(max_sweeps) +
                   " max_levels=" + std::to_string(max_levels));
      Rng rng(300);
      TransactionGraph g = RandomGraph(&rng, 900);
      LouvainOptions options;
      options.max_sweeps_per_level = max_sweeps;
      options.max_levels = max_levels;
      CheckBothPaths(g, ShuffledOrder(&rng, g.num_nodes()), options);
    }
  }
}

// Two copies of one random graph, node i of the half becoming ids 2i and
// 2i + 1 and every node visited next to its mirror, so mirror communities
// form alike and tie for the centers that trade with both copies equally.
// Where an even node carries a self-loop of w/2, its odd mirror has an
// edge of w to a heavy hub: the same degree, but only the even copy can
// settle. The weights' low bits sit half an ulp below the community
// totals, so `total - k + k` can round away from `total`, and only the
// settled copy's round trips are the ones a skip could drop.
TransactionGraph MirroredGraph(Rng* rng, uint32_t half, uint32_t centers) {
  const double weights[] = {10.0 + 0x1p-43, 17.0 + 3 * 0x1p-43, 25.0,
                            31.0 + 5 * 0x1p-43, 3.0 + 0x1p-43};
  auto weight = [&] { return 3.0 * weights[rng->NextBounded(5)]; };
  TransactionGraph g;
  for (uint32_t e = 0; e < 4 * half; ++e) {
    const auto i = static_cast<NodeId>(rng->NextBounded(half));
    auto j = static_cast<NodeId>(rng->NextBounded(half));
    if (rng->NextBounded(3) != 0) j = static_cast<NodeId>(i - i % 6 + j % 6);
    if (j >= half) j = i;
    const double w = weight();
    if (i == j) {
      g.AddSelfLoop(2 * i, w);
      g.AddSelfLoop(2 * i + 1, w);
    } else {
      g.AddEdge(2 * i, 2 * j, w);
      g.AddEdge(2 * i + 1, 2 * j + 1, w);
    }
  }
  const auto hub = static_cast<NodeId>(2 * half);
  for (NodeId i = 0; i < half; ++i) {
    if (rng->NextBounded(3) != 0) continue;
    const double w = 0.0625 * weight();
    g.AddSelfLoop(2 * i, w / 2);
    g.AddEdge(2 * i + 1, hub, w);
  }
  g.AddSelfLoop(hub, 300.0);
  for (uint32_t c = 0; c < centers; ++c) {
    const auto center = static_cast<NodeId>(hub + 1 + c);
    for (int t = 0; t < 3; ++t) {
      const auto i = static_cast<NodeId>(rng->NextBounded(half));
      const double w = weight();
      g.AddEdge(center, 2 * i, w);
      g.AddEdge(center, 2 * i + 1, w);
    }
  }
  g.Consolidate();
  return g;
}

// Mirror pairs in a shuffled order, the hub after them, and the centers
// at random places.
std::vector<NodeId> MirroredOrder(Rng* rng, uint32_t half, uint32_t centers) {
  std::vector<NodeId> order;
  for (NodeId i : ShuffledOrder(rng, half)) {
    order.push_back(2 * i);
    order.push_back(2 * i + 1);
  }
  order.push_back(2 * half);
  for (uint32_t c = 0; c < centers; ++c) {
    const auto at =
        static_cast<std::ptrdiff_t>(rng->NextBounded(order.size() + 1));
    order.insert(order.begin() + at, static_cast<NodeId>(2 * half + 1 + c));
  }
  return order;
}

TEST(LouvainEquivalenceTest, MirroredTiesKeepTheRoundTrip) {
  // A settled node's visit still subtracts and re-adds k_v to its
  // community's total. On these graphs that round trip changes a total's
  // last bit now and then; skipping it changes the communities in five of
  // the 500 runs below, where a near-tie turns on that bit.
  for (const double resolution : {0.5, 0.7, 1.5, 2.0, 3.0}) {
    for (uint64_t seed = 0; seed < 100; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " resolution=" + std::to_string(resolution));
      Rng rng(9000 + seed);
      const TransactionGraph g = MirroredGraph(&rng, 40, 5);
      LouvainOptions options;
      options.resolution = resolution;
      CheckBothPaths(g, MirroredOrder(&rng, 40, 5), options);
    }
  }
}

TEST(LouvainEquivalenceTest, VisitOrdersLayOutLevelZero) {
  // Level 0's rows are copied in the visit order, so local moving reads
  // them in sequence while communities and aggregation stay indexed by
  // node id, and nodes without an edge are not visited.
  // Every order of one graph must match the reference: the id order, its
  // reverse, shuffles, and orders that are not a permutation (a node
  // listed twice, a short list), which keep the id layout.
  for (const uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(400 + seed);
    TransactionGraph g = RandomGraph(&rng, 4000);
    // Half the isolated ids get a self-loop and no edge. Local moving
    // visits neither kind: a node without an edge stays alone in its
    // community, whose total is its own k_v.
    for (NodeId v = kNodes - kIsolated; v < kNodes; v += 2) {
      g.AddSelfLoop(v, 0.1 * static_cast<double>(seed));
    }
    g.Consolidate();
    std::vector<NodeId> identity(g.num_nodes());
    std::iota(identity.begin(), identity.end(), 0);
    std::vector<std::vector<NodeId>> orders = {
        identity, {identity.rbegin(), identity.rend()}};
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      orders.push_back(ShuffledOrder(&rng, g.num_nodes()));
    }
    std::vector<NodeId> repeated = orders.back();
    repeated[7] = repeated[300];
    orders.push_back(repeated);
    orders.push_back({orders[2].begin(), orders[2].end() - 5});
    for (size_t o = 0; o < orders.size(); ++o) {
      SCOPED_TRACE("order=" + std::to_string(o));
      CheckBothPaths(g, orders[o], LouvainOptions{});
    }
  }
}

}  // namespace
}  // namespace txallo::graph
