#include "txallo/core/global.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "txallo/common/sha256.h"
#include "txallo/common/stopwatch.h"
#include "txallo/core/gain.h"

namespace txallo::core {

namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using alloc::CommunityState;
using alloc::kUnassignedShard;
using alloc::ShardId;
using graph::NodeId;
using graph::TransactionGraph;

// The per-call clamp cache: before[q] == state.ThroughputOf(q), the
// `before` term every leave and join gain subtracts. Callers refresh every
// community an applied leave or join changes, so each read returns the
// bits a fresh ClampThroughput would. It lives for one call and never goes
// into CommunityState, so nothing else that edits the state (history
// decay, recomputation) can leave it stale.
std::vector<double> ClampedThroughputs(const CommunityState& state) {
  std::vector<double> before(state.num_communities());
  for (ShardId q = 0; q < before.size(); ++q) before[q] = state.ThroughputOf(q);
  return before;
}

// One entry of a node's saved accumulation: a community of its touched
// list and w{v, community}.
struct CachedWeight {
  ShardId community;
  double weight;
};

// Scratch accumulator of w{v, community}, reset via a touched list so a
// sweep over the whole graph is O(Σ degree), not O(N·k). Also owns the
// per-node join-gain buffer the batched kernel fills.
class WeightToCommunity {
 public:
  explicit WeightToCommunity(uint32_t num_communities)
      : num_communities_(num_communities),
        weight_(num_communities, 0.0),
        gains_(num_communities, 0.0) {
    touched_.reserve(64);
  }

  void Accumulate(std::span<const graph::Neighbor> row,
                  const Allocation& allocation) {
    const ShardId* shard_of = allocation.raw().data();
    const size_t num_accounts = allocation.num_accounts();
    for (const graph::Neighbor& nb : row) {
      const ShardId c =
          nb.node < num_accounts ? shard_of[nb.node] : kUnassignedShard;
      if (c == kUnassignedShard) continue;
      if (weight_[c] == 0.0) touched_.push_back(c);
      weight_[c] += nb.weight;
    }
  }

  /// Restores an accumulation saved from this scratch: the same touched
  /// list, in the same order, with the same weights.
  void Load(std::span<const CachedWeight> saved) {
    for (const CachedWeight& entry : saved) {
      touched_.push_back(entry.community);
      weight_[entry.community] = entry.weight;
    }
  }

  /// True when no community but `c` has weight from the node.
  bool OnlyTouches(ShardId c) const {
    for (ShardId q : touched_) {
      if (q != c) return false;
    }
    return true;
  }

  /// Fills gains_[q] = join gain of the accumulated node into q. When the
  /// candidate set is dense — or the caller needs all k — one batched pass
  /// over the contiguous σ/Λ̂ arrays; otherwise scalar JoinDelta per
  /// touched community. Both paths produce bit-identical gains (the batch
  /// kernel replays the scalar expression tree), so the density heuristic
  /// affects speed only, never the selected shard. Untouched entries are
  /// stale in sparse mode; callers only read q's they asked for.
  void ComputeJoinGains(const CommunityState& state,
                        const std::vector<double>& before,
                        const NodeProfile& node, bool need_all) {
    if (need_all || touched_.size() * 4 >= num_communities_) {
      JoinGainBatch(state, node, weight_.data(), before.data(),
                    num_communities_, gains_.data());
    } else {
      for (ShardId q : touched_) {
        gains_[q] =
            JoinDelta(state, q, node, weight_[q], before[q]).throughput_gain;
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

// The rows of a sweep's nodes, copied once into one array in visit order,
// with each node's (ℓ, s). Entries keep Neighbors(v)'s order, so every
// accumulation over a packed row adds the same weights in the same order
// as over the graph's own row; the sweeps then read memory sequentially
// instead of jumping to CSR offsets.
//
// Beside each row sits room for the node's saved accumulation: min(degree,
// `cache_width`) slots. A touched list has at most one entry per neighbour
// and, unless a partial sum hits exactly 0, one per community; a list
// that does not fit is not saved. A `cache_width` of 0 saves nothing.
class PackedRows {
 public:
  PackedRows(const TransactionGraph& graph, const std::vector<NodeId>& nodes,
             uint32_t cache_width) {
    offsets_.reserve(nodes.size() + 1);
    offsets_.push_back(0);
    cache_offsets_.reserve(nodes.size() + 1);
    cache_offsets_.push_back(0);
    profiles_.reserve(nodes.size());
    for (NodeId v : nodes) {
      const size_t degree = graph.Neighbors(v).size();
      offsets_.push_back(offsets_.back() + degree);
      cache_offsets_.push_back(cache_offsets_.back() +
                               std::min<size_t>(degree, cache_width));
      profiles_.push_back({graph.SelfLoop(v), graph.Strength(v)});
    }
    entries_.reserve(offsets_.back());
    for (NodeId v : nodes) {
      const std::span<const graph::Neighbor> row = graph.Neighbors(v);
      entries_.insert(entries_.end(), row.begin(), row.end());
    }
    cache_.resize(cache_offsets_.back());
    cache_size_.resize(nodes.size(), 0);
  }

  std::span<const graph::Neighbor> Row(size_t i) const {
    return {entries_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  const NodeProfile& Profile(size_t i) const { return profiles_[i]; }

  /// Node i's last saved accumulation.
  std::span<const CachedWeight> Cached(size_t i) const {
    return {cache_.data() + cache_offsets_[i], cache_size_[i]};
  }
  /// Saves `scratch`'s touched list and weights as node i's accumulation;
  /// returns false, saving nothing, when they do not fit.
  bool Save(size_t i, const WeightToCommunity& scratch) {
    const std::vector<ShardId>& touched = scratch.touched();
    if (touched.size() > cache_offsets_[i + 1] - cache_offsets_[i]) {
      return false;
    }
    CachedWeight* out = cache_.data() + cache_offsets_[i];
    for (ShardId c : touched) *out++ = {c, scratch.WeightTo(c)};
    cache_size_[i] = static_cast<uint32_t>(touched.size());
    return true;
  }

 private:
  std::vector<size_t> offsets_;
  std::vector<graph::Neighbor> entries_;
  std::vector<NodeProfile> profiles_;
  std::vector<size_t> cache_offsets_;
  std::vector<CachedWeight> cache_;
  std::vector<uint32_t> cache_size_;
};

// Phase 1a: Louvain + keep the k communities with the largest workload σ.
// Fills `allocation` with shard ids for nodes of the top-k communities and
// leaves every other node unassigned. Returns the Louvain community count.
uint32_t LouvainInitialize(const TransactionGraph& graph,
                           const std::vector<NodeId>& node_order,
                           const AllocationParams& params,
                           const GlobalOptions& options,
                           Allocation* allocation) {
  graph::LouvainResult louvain =
      graph::RunLouvain(graph, node_order, options.louvain);
  const uint32_t l = louvain.num_communities;

  // Workload σ of every Louvain community (η-aware), used for the top-k
  // ranking. Reuse the from-scratch state computation with k' = l.
  Allocation louvain_alloc(graph.num_nodes(), l);
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    louvain_alloc.Assign(static_cast<NodeId>(v), louvain.community[v]);
  }
  AllocationParams rank_params = params;
  rank_params.num_shards = l;
  CommunityState rank_state =
      alloc::ComputeCommunityState(graph, louvain_alloc, rank_params);

  // Rank communities by workload, descending; ties toward the smaller id
  // keep the ranking deterministic.
  std::vector<uint32_t> ranked(l);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(), [&](uint32_t a, uint32_t b) {
    if (rank_state.sigma[a] != rank_state.sigma[b]) {
      return rank_state.sigma[a] > rank_state.sigma[b];
    }
    return a < b;
  });

  std::vector<ShardId> community_to_shard(l, kUnassignedShard);
  const uint32_t kept = std::min(params.num_shards, l);
  for (uint32_t rank = 0; rank < kept; ++rank) {
    community_to_shard[ranked[rank]] = rank;
  }
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    const ShardId s = community_to_shard[louvain.community[v]];
    if (s != kUnassignedShard) allocation->Assign(static_cast<NodeId>(v), s);
  }
  return l;
}

// What a phase-2 visit to a node has to do. Kept per node id for one
// OptimizeSweeps call; a move resets every neighbour to kAccumulate.
enum class Visit : uint8_t {
  kAccumulate,  // Sum w{v, ·} over the packed row.
  kCached,      // No neighbour moved since the last sum: reload it.
  kSettled,     // Every assigned neighbour is in v's shard: v cannot move.
};

}  // namespace

void AssignUnassignedNodes(const TransactionGraph& graph,
                           const std::vector<NodeId>& node_order,
                           const AllocationParams& params,
                           Allocation* allocation, CommunityState* state) {
  WeightToCommunity scratch(params.num_shards);
  std::vector<double> before = ClampedThroughputs(*state);
  for (NodeId v : node_order) {
    if (allocation->IsAssigned(v)) continue;
    NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
    scratch.Accumulate(graph.Neighbors(v), *allocation);
    scratch.ComputeJoinGains(*state, before, node,
                             /*need_all=*/scratch.touched().empty());

    // Max join gain; ties break toward the smaller shard id (determinism).
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
      // C_v = ∅: force the candidate set to all k communities (Alg. 1 l.5).
      for (ShardId q = 0; q < params.num_shards; ++q) {
        const double gain = scratch.Gain(q);
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        }
      }
    }
    ApplyJoin(state, best, node, scratch.WeightTo(best));
    before[best] = state->ThroughputOf(best);
    allocation->Assign(v, best);
    scratch.Reset();
  }
}

int OptimizeSweeps(const TransactionGraph& graph,
                   const std::vector<NodeId>& sweep_nodes,
                   const AllocationParams& params,
                   const GlobalOptions& options, Allocation* allocation,
                   CommunityState* state) {
  WeightToCommunity scratch(params.num_shards);
  std::vector<double> before = ClampedThroughputs(*state);
  // Saved sums sit beside the rows, one per sweep position, so a node
  // listed twice would reload another position's sum: then none is saved.
  // The visit bytes double as the marks that find a repeat.
  std::vector<Visit> visit(graph.num_nodes(), Visit::kAccumulate);
  bool repeats = false;
  for (NodeId v : sweep_nodes) {
    repeats = repeats || visit[v] != Visit::kAccumulate;
    visit[v] = Visit::kSettled;
  }
  for (NodeId v : sweep_nodes) visit[v] = Visit::kAccumulate;
  PackedRows rows(graph, sweep_nodes, repeats ? 0 : params.num_shards);
  int sweeps = 0;
  for (; sweeps < options.max_sweeps; ++sweeps) {
    double sweep_gain = 0.0;
    for (size_t i = 0; i < sweep_nodes.size(); ++i) {
      const NodeId v = sweep_nodes[i];
      const ShardId p = allocation->shard_of(v);
      if (p == kUnassignedShard) continue;  // Defensive; phase 1 assigns all.
      if (visit[v] == Visit::kSettled) continue;
      const NodeProfile& node = rows.Profile(i);
      bool cached = visit[v] == Visit::kCached;
      if (cached) {
        scratch.Load(rows.Cached(i));
      } else {
        scratch.Accumulate(rows.Row(i), *allocation);
        cached = rows.Save(i, scratch);
      }

      const double w_to_p = scratch.WeightTo(p);
      const CommunityDelta leave =
          LeaveDelta(*state, p, node, w_to_p, before[p]);
      scratch.ComputeJoinGains(*state, before, node,
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
      const bool moves = best != p && best_gain > 0.0;
      if (moves) {
        ApplyLeave(state, p, node, w_to_p);
        ApplyJoin(state, best, node, scratch.WeightTo(best));
        before[p] = state->ThroughputOf(p);
        before[best] = state->ThroughputOf(best);
        allocation->Assign(v, best);
        sweep_gain += best_gain;
      }
      // Under search_all_communities every community is a candidate, so
      // no node is ever settled.
      if (!options.search_all_communities &&
          scratch.OnlyTouches(allocation->shard_of(v))) {
        visit[v] = Visit::kSettled;
      } else {
        visit[v] = cached ? Visit::kCached : Visit::kAccumulate;
      }
      if (moves) {
        for (const graph::Neighbor& nb : rows.Row(i)) {
          visit[nb.node] = Visit::kAccumulate;
        }
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

Result<Allocation> RunGlobalTxAllo(const TransactionGraph& graph,
                                   const std::vector<NodeId>& node_order,
                                   const AllocationParams& params,
                                   const GlobalOptions& options,
                                   GlobalRunInfo* info) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  if (!graph.consolidated()) {
    return Status::FailedPrecondition(
        "transaction graph must be consolidated before allocation");
  }
  if (node_order.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "node_order must be a permutation of all graph nodes");
  }

  GlobalRunInfo local_info;
  Stopwatch total_watch;
  Allocation allocation(graph.num_nodes(), params.num_shards);

  if (options.hash_initialization) {
    // Ablation: seed shards by account hash instead of Louvain communities.
    Stopwatch watch;
    for (size_t v = 0; v < graph.num_nodes(); ++v) {
      allocation.Assign(static_cast<NodeId>(v),
                        static_cast<ShardId>(Sha256::Hash64(
                                                 static_cast<uint64_t>(v)) %
                                             params.num_shards));
    }
    local_info.louvain_seconds = watch.ElapsedSeconds();
  } else {
    Stopwatch watch;
    local_info.louvain_communities =
        LouvainInitialize(graph, node_order, params, options, &allocation);
    local_info.louvain_seconds = watch.ElapsedSeconds();
  }

  CommunityState state =
      alloc::ComputeCommunityState(graph, allocation, params);

  {
    Stopwatch watch;
    AssignUnassignedNodes(graph, node_order, params, &allocation, &state);
    local_info.init_seconds = watch.ElapsedSeconds();
  }
  local_info.initial_throughput = state.TotalThroughput();

  {
    Stopwatch watch;
    local_info.sweeps = OptimizeSweeps(graph, node_order, params, options,
                                       &allocation, &state);
    local_info.optimize_seconds = watch.ElapsedSeconds();
  }
  local_info.final_throughput = state.TotalThroughput();
  local_info.total_seconds = total_watch.ElapsedSeconds();
  if (info != nullptr) *info = local_info;

  TXALLO_RETURN_NOT_OK(allocation.Validate());
  return allocation;
}

}  // namespace txallo::core
