// The phase-2 sweep and the phase-1b assignment read packed row copies and
// a per-call clamp cache instead of the graph and a fresh clamp per gain.
// The sweep walks a bitmap of live positions, skipping settled nodes
// (every assigned neighbour already in the node's shard), and evaluates a
// node whose neighbours have not moved over its saved w{v, ·}; phase 1b
// places a node with no edge and no self-loop on shard 0 without a gain
// scan. All are pure speed changes: on seeded random graphs, the
// allocation bytes, the σ/Λ̂ bits and the sweep counts must equal those of
// the straightforward loops kept verbatim below as the reference.
// Cases cover a graph consolidated once swept in full (the G-TxAllo path),
// a graph built over many consolidations swept over a V̂ subset (the
// A-TxAllo path), the all-communities ablation, k in {1, 3, 16, 17},
// isolated and unassigned nodes, long runs of moves beside settled nodes,
// hubs whose touched list fills its saved slots, V̂ subsets whose
// neighbours lie outside V̂, near-tied gains whose winner depends on the
// touched-list order, nodes listed twice, neighbours woken earlier and
// later in the moved node's own bitmap word and in other words, and
// zero-degree nodes absorbed beside nodes that have only a self-loop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "txallo/alloc/graph_metrics.h"
#include "txallo/common/rng.h"
#include "txallo/core/gain.h"
#include "txallo/core/global.h"
#include "txallo/graph/graph.h"

namespace txallo::core {
namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using alloc::CommunityState;
using alloc::kUnassignedShard;
using alloc::ShardId;
using graph::NodeId;
using graph::TransactionGraph;

// --- Reference: the sweep loops as they were before packing and caching ---
// Only the dense join path differs: it evaluates JoinDelta per community,
// which gain_batch_test.cc pins bit-identical to the batched kernel.

class ReferenceWeights {
 public:
  explicit ReferenceWeights(uint32_t num_communities)
      : num_communities_(num_communities),
        weight_(num_communities, 0.0),
        gains_(num_communities, 0.0) {
    touched_.reserve(64);
  }

  void Accumulate(const TransactionGraph& graph, NodeId v,
                  const Allocation& allocation) {
    const ShardId* shard_of = allocation.raw().data();
    const size_t num_accounts = allocation.num_accounts();
    for (const graph::Neighbor& nb : graph.Neighbors(v)) {
      const ShardId c =
          nb.node < num_accounts ? shard_of[nb.node] : kUnassignedShard;
      if (c == kUnassignedShard) continue;
      if (weight_[c] == 0.0) touched_.push_back(c);
      weight_[c] += nb.weight;
    }
  }

  void ComputeJoinGains(const CommunityState& state, const NodeProfile& node,
                        bool need_all) {
    if (need_all || touched_.size() * 4 >= num_communities_) {
      for (ShardId q = 0; q < num_communities_; ++q) {
        gains_[q] = JoinDelta(state, q, node, weight_[q]).throughput_gain;
      }
    } else {
      for (ShardId q : touched_) {
        gains_[q] = JoinDelta(state, q, node, weight_[q]).throughput_gain;
      }
    }
  }

  double WeightTo(ShardId c) const { return weight_[c]; }
  double Gain(ShardId c) const { return gains_[c]; }
  const std::vector<ShardId>& touched() const { return touched_; }

  void Reset() {
    for (ShardId c : touched_) weight_[c] = 0.0;
    touched_.clear();
  }

 private:
  uint32_t num_communities_;
  std::vector<double> weight_;
  std::vector<double> gains_;
  std::vector<ShardId> touched_;
};

void ReferenceAssignUnassigned(const TransactionGraph& graph,
                               const std::vector<NodeId>& node_order,
                               const AllocationParams& params,
                               Allocation* allocation, CommunityState* state) {
  ReferenceWeights scratch(params.num_shards);
  for (NodeId v : node_order) {
    if (allocation->IsAssigned(v)) continue;
    NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
    scratch.Accumulate(graph, v, *allocation);
    scratch.ComputeJoinGains(*state, node,
                             /*need_all=*/scratch.touched().empty());

    ShardId best = kUnassignedShard;
    double best_gain = 0.0;
    if (!scratch.touched().empty()) {
      for (ShardId q : scratch.touched()) {
        const double gain = scratch.Gain(q);
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        } else if (gain >= best_gain - 1e-15 && q < best) {
          best = q;
        }
      }
    } else {
      for (ShardId q = 0; q < params.num_shards; ++q) {
        const double gain = scratch.Gain(q);
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        }
      }
    }
    ApplyJoin(state, best, node, scratch.WeightTo(best));
    allocation->Assign(v, best);
    scratch.Reset();
  }
}

int ReferenceOptimizeSweeps(const TransactionGraph& graph,
                            const std::vector<NodeId>& sweep_nodes,
                            const AllocationParams& params,
                            const GlobalOptions& options,
                            Allocation* allocation, CommunityState* state) {
  ReferenceWeights scratch(params.num_shards);
  int sweeps = 0;
  for (; sweeps < options.max_sweeps; ++sweeps) {
    double sweep_gain = 0.0;
    for (NodeId v : sweep_nodes) {
      const ShardId p = allocation->shard_of(v);
      if (p == kUnassignedShard) continue;
      NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
      scratch.Accumulate(graph, v, *allocation);

      const double w_to_p = scratch.WeightTo(p);
      const CommunityDelta leave = LeaveDelta(*state, p, node, w_to_p);
      scratch.ComputeJoinGains(*state, node,
                               /*need_all=*/options.search_all_communities);

      ShardId best = p;
      double best_gain = 0.0;
      if (options.search_all_communities) {
        for (ShardId q = 0; q < params.num_shards; ++q) {
          if (q == p) continue;
          const double gain = leave.throughput_gain + scratch.Gain(q);
          if (gain > best_gain + 1e-15) {
            best = q;
            best_gain = gain;
          } else if (gain >= best_gain - 1e-15 && best != p && q < best) {
            best = q;
          }
        }
      } else {
        for (ShardId q : scratch.touched()) {
          if (q == p) continue;
          const double gain = leave.throughput_gain + scratch.Gain(q);
          if (gain > best_gain + 1e-15) {
            best = q;
            best_gain = gain;
          } else if (gain >= best_gain - 1e-15 && best != p && q < best) {
            best = q;
          }
        }
      }
      if (best != p && best_gain > 0.0) {
        ApplyLeave(state, p, node, w_to_p);
        ApplyJoin(state, best, node, scratch.WeightTo(best));
        allocation->Assign(v, best);
        sweep_gain += best_gain;
      }
      scratch.Reset();
    }
    if (sweep_gain < params.epsilon) {
      ++sweeps;
      break;
    }
  }
  return sweeps;
}

// --- Fixtures ---------------------------------------------------------------

constexpr uint32_t kNodes = 600;
constexpr uint32_t kIsolated = 20;  // The last ids never get an edge.
constexpr uint32_t kPlanted = 12;   // Planted communities the edges favor.

// One transaction-like edge between two non-isolated nodes, mostly inside a
// planted community; weights are 1/π shares so sums are not exact.
void AddRandomEdge(Rng* rng, TransactionGraph* g) {
  const uint32_t active = kNodes - kIsolated;
  const auto u = static_cast<NodeId>(rng->NextBounded(active));
  NodeId v = static_cast<NodeId>(rng->NextBounded(active));
  if (rng->NextBounded(5) != 0) {
    // Same planted community as u (community = id % kPlanted).
    v = static_cast<NodeId>(v - v % kPlanted + u % kPlanted);
    if (v >= active) v = static_cast<NodeId>(u % kPlanted);
  }
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

// Random placement; roughly one node in five (always including some
// isolated ones) stays unassigned.
Allocation RandomAllocation(Rng* rng, size_t n, uint32_t k) {
  Allocation a(n, k);
  for (size_t v = 0; v < n; ++v) {
    if (rng->NextBounded(5) == 0) continue;
    a.Assign(static_cast<NodeId>(v), static_cast<ShardId>(rng->NextBounded(k)));
  }
  return a;
}

AllocationParams Params(const TransactionGraph& g, uint32_t k,
                        double capacity_factor) {
  AllocationParams p;
  p.num_shards = k;
  p.eta = 2.0;
  // Factors around 1 put some communities over capacity, so the clamp's
  // division branch runs as well as its pass-through.
  p.capacity = capacity_factor * g.TotalWeight() / k;
  p.epsilon = 1e-9;
  return p;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << "[" << i << "] " << a[i] << " vs " << b[i];
  }
}

struct Outcome {
  Allocation allocation;
  CommunityState state;
  int sweeps = 0;
};

void ExpectSameOutcome(const Outcome& ref, const Outcome& got) {
  EXPECT_TRUE(ref.allocation.raw() == got.allocation.raw());
  ExpectSameBits(ref.state.sigma, got.state.sigma, "sigma");
  ExpectSameBits(ref.state.lambda_hat, got.state.lambda_hat, "lambda_hat");
  EXPECT_EQ(ref.sweeps, got.sweeps);
}

// Runs phase 1b (when `assign`) and phase 2 over `nodes` from the same
// start through the reference and the library, and compares the outcomes.
// Returns the reference sweep count.
int CheckBothPaths(const TransactionGraph& g, const std::vector<NodeId>& nodes,
                   const AllocationParams& params, const GlobalOptions& options,
                   const Allocation& start, bool assign) {
  const CommunityState start_state =
      alloc::ComputeCommunityState(g, start, params);
  Outcome ref{start, start_state};
  Outcome got{start, start_state};
  if (assign) {
    ReferenceAssignUnassigned(g, nodes, params, &ref.allocation, &ref.state);
    AssignUnassignedNodes(g, nodes, params, &got.allocation, &got.state);
    ExpectSameOutcome(ref, got);
  }
  ref.sweeps = ReferenceOptimizeSweeps(g, nodes, params, options,
                                       &ref.allocation, &ref.state);
  got.sweeps =
      OptimizeSweeps(g, nodes, params, options, &got.allocation, &got.state);
  ExpectSameOutcome(ref, got);
  return ref.sweeps;
}

// --- Cases ------------------------------------------------------------------

TEST(SweepEquivalenceTest, RefrozenGraphFullOrder) {
  // The G-TxAllo shape: every node swept over a graph consolidated once.
  int total_sweeps = 0;
  for (const uint32_t k : {1u, 3u, 16u, 17u}) {
    for (const double capacity_factor : {0.6, 1.0, 3.0}) {
      for (const bool search_all : {false, true}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " capacity_factor=" +
                     std::to_string(capacity_factor) +
                     " search_all=" + std::to_string(search_all));
        Rng rng(1000 + k);
        TransactionGraph g = RandomGraph(&rng, 4000);
        const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
        const AllocationParams params = Params(g, k, capacity_factor);
        GlobalOptions options;
        options.search_all_communities = search_all;
        total_sweeps += CheckBothPaths(g, order, params, options,
                                       RandomAllocation(&rng, kNodes, k),
                                       /*assign=*/true);
      }
    }
  }
  // The comparison means something only if the sweeps ran and moved.
  EXPECT_GT(total_sweeps, 24);
}

TEST(SweepEquivalenceTest, SubsetOfAGraphBuiltOverManyConsolidations) {
  // The A-TxAllo shape: a graph built over many consolidations, the later
  // ones merging small logs into a large core; only a subset is swept.
  for (const uint32_t k : {1u, 3u, 16u, 17u}) {
    for (const bool search_all : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " search_all=" + std::to_string(search_all));
      Rng rng(2000 + k);
      TransactionGraph g = RandomGraph(&rng, 4000);
      for (int batch = 0; batch < 4; ++batch) {
        for (int e = 0; e < 10; ++e) AddRandomEdge(&rng, &g);
        g.Consolidate();
      }
      // V̂ in shuffled order: a third of the nodes, so a mix of rows the
      // later consolidations merged and rows they copied, plus half the
      // isolated ones.
      std::vector<NodeId> touched;
      for (NodeId v : ShuffledOrder(&rng, g.num_nodes())) {
        const bool isolated = v >= kNodes - kIsolated;
        if (isolated ? rng.NextBounded(2) == 0 : rng.NextBounded(3) == 0) {
          touched.push_back(v);
        }
      }
      const AllocationParams params = Params(g, k, 1.0);
      GlobalOptions options;
      options.search_all_communities = search_all;
      CheckBothPaths(g, touched, params, options,
                     RandomAllocation(&rng, kNodes, k), /*assign=*/true);
    }
  }
}

TEST(SweepEquivalenceTest, SweepsSkipUnassignedNodes) {
  // Phase 2 without phase 1b: unassigned nodes are skipped, and their
  // weight never counts toward any community.
  for (const uint32_t k : {3u, 16u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng rng(3000 + k);
    TransactionGraph g = RandomGraph(&rng, 3000);
    const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
    const Allocation start = RandomAllocation(&rng, kNodes, k);
    const AllocationParams params = Params(g, k, 1.0);
    CheckBothPaths(g, order, params, GlobalOptions{}, start,
                   /*assign=*/false);
  }
}

TEST(SweepEquivalenceTest, SweepCapStopsBothAlike) {
  // A tight max_sweeps ends the loop before the ε test does.
  Rng rng(4000);
  TransactionGraph g = RandomGraph(&rng, 4000);
  const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
  const Allocation start = RandomAllocation(&rng, kNodes, 16);
  for (const int max_sweeps : {0, 1, 2}) {
    SCOPED_TRACE("max_sweeps=" + std::to_string(max_sweeps));
    GlobalOptions options;
    options.max_sweeps = max_sweeps;
    EXPECT_EQ(CheckBothPaths(g, order, Params(g, 16, 1.0), options, start,
                             /*assign=*/true),
              max_sweeps);
  }
}

// Hubs: ids 0..3 trade with `fanout` random nodes each, so their rows are
// far longer than k and their touched lists reach all k communities.
void AddHubs(Rng* rng, int fanout, TransactionGraph* g) {
  for (NodeId hub = 0; hub < 4; ++hub) {
    for (int e = 0; e < fanout; ++e) {
      const auto v =
          static_cast<NodeId>(4 + rng->NextBounded(kNodes - kIsolated - 4));
      g->AddEdge(hub, v, 1.0 / 3.0);
    }
  }
}

// Loners: half the isolated ids get a heavy self-loop and no edge. With
// no assigned neighbour a loner is settled under Eq. 9, yet the
// all-communities ablation moves it off a shard that capacity pressure
// builds up around it.
void AddLoners(TransactionGraph* g) {
  for (NodeId v = kNodes - kIsolated; v < kNodes; v += 2) {
    g->AddSelfLoop(v, 4.0);
  }
}

TEST(SweepEquivalenceTest, LongRunsOfMovesBesideSettledNodes) {
  // A near-zero ε keeps sweeping while any move pays, and capacity
  // pressure keeps nodes moving for many sweeps after most of their
  // neighbours have settled: every move must wake the neighbours it
  // changed, settled or cached.
  int total_sweeps = 0;
  for (const uint32_t k : {1u, 16u, 17u}) {
    for (const double capacity_factor : {0.9, 1.3}) {
      for (const bool search_all : {false, true}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " capacity_factor=" +
                     std::to_string(capacity_factor) +
                     " search_all=" + std::to_string(search_all));
        Rng rng(5000 + k);
        TransactionGraph g = RandomGraph(&rng, 4000);
        AddHubs(&rng, 200, &g);
        AddLoners(&g);
        g.Consolidate();
        const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
        AllocationParams params = Params(g, k, capacity_factor);
        params.epsilon = 1e-300;
        GlobalOptions options;
        options.search_all_communities = search_all;
        total_sweeps += CheckBothPaths(g, order, params, options,
                                       RandomAllocation(&rng, kNodes, k),
                                       /*assign=*/true);
      }
    }
  }
  EXPECT_GT(total_sweeps, 60);
}

TEST(SweepEquivalenceTest, SubsetWithNeighboursOutsideIt) {
  // V̂ holds every third planted community plus the hubs: most rows lead
  // out of V̂ to nodes that never move, while moves inside V̂ must still
  // wake the V̂ nodes next to them.
  for (const uint32_t k : {1u, 16u, 17u}) {
    for (const bool search_all : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " search_all=" + std::to_string(search_all));
      Rng rng(6000 + k);
      TransactionGraph g = RandomGraph(&rng, 4000);
      AddHubs(&rng, 100, &g);
      g.Consolidate();
      std::vector<NodeId> subset;
      for (NodeId v : ShuffledOrder(&rng, g.num_nodes())) {
        if (v < 4 || v % kPlanted % 3 == 0) subset.push_back(v);
      }
      AllocationParams params = Params(g, k, 0.7);
      params.epsilon = 1e-300;
      GlobalOptions options;
      options.search_all_communities = search_all;
      CheckBothPaths(g, subset, params, options,
                     RandomAllocation(&rng, kNodes, k), /*assign=*/true);
    }
  }
}

TEST(SweepEquivalenceTest, NearTiedGainsFollowTouchedOrder) {
  // Light edges and no capacity pressure: a move changes Λ only by
  // rounding, so candidate gains sit within a few ulps of each other and
  // of the 1e-15 tie band, and a near-zero ε keeps such moves sweeping.
  // Which candidate wins then depends on the order the touched list holds
  // them in, so a reloaded list must keep the order its accumulation
  // produced. About one seed in eight has a visit where the order decides.
  int total_sweeps = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    for (const uint32_t k : {16u, 17u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " k=" + std::to_string(k));
      Rng rng(7000 + seed);
      TransactionGraph g = RandomGraph(&rng, 400);
      const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
      AllocationParams params = Params(g, k, 8.0);
      params.epsilon = 1e-300;
      total_sweeps += CheckBothPaths(g, order, params, GlobalOptions{},
                                     RandomAllocation(&rng, kNodes, k),
                                     /*assign=*/true);
    }
  }
  EXPECT_GT(total_sweeps, 240);
}

TEST(SweepEquivalenceTest, RepeatedNodesAreSweptEachTime) {
  // A node listed twice is visited twice per sweep, like in the reference,
  // and neither visit may reload the other position's saved sum.
  for (const uint32_t k : {3u, 16u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng rng(8000 + k);
    TransactionGraph g = RandomGraph(&rng, 3000);
    std::vector<NodeId> nodes = ShuffledOrder(&rng, g.num_nodes());
    const std::vector<NodeId> again = ShuffledOrder(&rng, g.num_nodes());
    nodes.insert(nodes.end(), again.begin(), again.begin() + 200);
    const AllocationParams params = Params(g, k, 0.9);
    CheckBothPaths(g, nodes, params, GlobalOptions{},
                   RandomAllocation(&rng, kNodes, k), /*assign=*/true);
  }
}


// Each sweep position i gets one edge, to position i + d for a d drawn
// from kReach, so a move wakes neighbours behind and ahead of the moved
// node's position inside its own 64-bit word of the live set (d = 1, 3,
// 40), and in the words before and after it (d = 64, 65, 129). The graph
// is sparse on purpose: a node with one or two neighbours settles beside
// them and follows the first that moves, so a wake that comes a sweep
// early or late changes the outcome. The order's length, 229, spans four
// words and is not a multiple of 64.
constexpr size_t kPositions = 3 * 64 + 37;
constexpr size_t kReach[] = {1, 3, 40, 64, 65, 129};

struct PositionalGraph {
  TransactionGraph graph;
  std::vector<NodeId> order;  // order[i]: the node at sweep position i.
};

PositionalGraph MakePositionalGraph(Rng* rng) {
  PositionalGraph out;
  out.order = ShuffledOrder(rng, kPositions);
  out.graph.EnsureNodeCount(kPositions);
  const double shares[] = {1.0, 0.5, 1.0 / 3.0, 0.1};
  for (size_t i = 0; i < kPositions; ++i) {
    const size_t d = kReach[rng->NextBounded(std::size(kReach))];
    if (i + d >= kPositions) continue;
    out.graph.AddEdge(out.order[i], out.order[i + d],
                      shares[rng->NextBounded(4)]);
  }
  out.graph.Consolidate();
  return out;
}

TEST(SweepEquivalenceTest, WakesBehindAndAheadInTheWordAndAcrossWords) {
  // Capacity pressure and a near-zero ε keep nodes moving after their
  // neighbours settle. A neighbour woken ahead of the walk in the current
  // word or a later one is visited this sweep; one behind it, in the same
  // word or an earlier one, waits for the next sweep, as in the reference.
  int total_sweeps = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const uint32_t k : {3u, 16u, 17u}) {
      for (const double capacity_factor : {0.7, 1.3}) {
        for (const bool search_all : {false, true}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k) + " capacity_factor=" +
                       std::to_string(capacity_factor) +
                       " search_all=" + std::to_string(search_all));
          Rng rng(9000 + seed);
          const PositionalGraph pg = MakePositionalGraph(&rng);
          AllocationParams params = Params(pg.graph, k, capacity_factor);
          params.epsilon = 1e-300;
          GlobalOptions options;
          options.search_all_communities = search_all;
          total_sweeps += CheckBothPaths(
              pg.graph, pg.order, params, options,
              RandomAllocation(&rng, kPositions, k), /*assign=*/true);
        }
      }
    }
  }
  EXPECT_GT(total_sweeps, 200);
}

TEST(SweepEquivalenceTest, PositionalSubsetWithNeighboursOutsideIt) {
  // V̂ keeps the first and third words of positions plus every third
  // position elsewhere: its sweep positions are not the graph's, and many
  // rows lead to nodes outside V̂, which never move and have no position
  // to wake.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (const uint32_t k : {3u, 16u}) {
      for (const bool search_all : {false, true}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " k=" + std::to_string(k) +
                     " search_all=" + std::to_string(search_all));
        Rng rng(9500 + seed);
        const PositionalGraph pg = MakePositionalGraph(&rng);
        std::vector<NodeId> subset;
        for (size_t i = 0; i < kPositions; ++i) {
          if (i / 64 % 2 == 0 || i % 3 == 0) subset.push_back(pg.order[i]);
        }
        AllocationParams params = Params(pg.graph, k, 0.8);
        params.epsilon = 1e-300;
        GlobalOptions options;
        options.search_all_communities = search_all;
        CheckBothPaths(pg.graph, subset, params, options,
                       RandomAllocation(&rng, kPositions, k),
                       /*assign=*/true);
      }
    }
  }
}

TEST(SweepEquivalenceTest, RepeatedNodesUnderEveryCandidateRule) {
  // Nodes listed twice keep every position live, under Eq. 9 and under
  // the all-communities ablation alike, over a positional graph whose
  // wakes would otherwise cross words.
  for (const bool search_all : {false, true}) {
    SCOPED_TRACE("search_all=" + std::to_string(search_all));
    Rng rng(9700);
    const PositionalGraph pg = MakePositionalGraph(&rng);
    std::vector<NodeId> nodes = pg.order;
    nodes.insert(nodes.end(), pg.order.begin() + 50, pg.order.begin() + 150);
    AllocationParams params = Params(pg.graph, 16, 0.9);
    params.epsilon = 1e-300;
    GlobalOptions options;
    options.search_all_communities = search_all;
    CheckBothPaths(pg.graph, nodes, params, options,
                   RandomAllocation(&rng, kPositions, 16), /*assign=*/true);
  }
}

TEST(SweepEquivalenceTest, ZeroDegreeNodesBesideSelfLoopOnlyNodes) {
  // Every isolated id starts unassigned; half of them have a self-loop
  // and nothing else. A zero-degree node lands on shard 0 and leaves σ/Λ̂
  // bit for bit, while a self-loop-only node has to take the full C_v = ∅
  // scan: its join adds ℓ to σ and Λ̂, and under capacity pressure it
  // picks a shard other than 0.
  for (const uint32_t k : {1u, 3u, 16u, 17u}) {
    for (const double capacity_factor : {0.5, 1.0, 3.0}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " capacity_factor=" +
                   std::to_string(capacity_factor));
      Rng rng(9900 + k);
      TransactionGraph g = RandomGraph(&rng, 3000);
      AddLoners(&g);
      g.Consolidate();
      const std::vector<NodeId> order = ShuffledOrder(&rng, g.num_nodes());
      Allocation start = RandomAllocation(&rng, kNodes, k);
      Allocation unassigned_isolated(kNodes, k);
      for (NodeId v = 0; v < kNodes - kIsolated; ++v) {
        if (start.IsAssigned(v)) {
          unassigned_isolated.Assign(v, start.shard_of(v));
        }
      }
      CheckBothPaths(g, order, Params(g, k, capacity_factor), GlobalOptions{},
                     unassigned_isolated, /*assign=*/true);
    }
  }
}

}  // namespace
}  // namespace txallo::core
