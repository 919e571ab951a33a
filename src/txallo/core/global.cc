#include "txallo/core/global.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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
// k-wide join-gain buffer of the scans that need every community's gain.
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

  /// Moves the accumulation out as its touched list, in order, each entry
  /// with its community's weight, and resets the scratch. The entries go
  /// into `room` when they fit there, else into a buffer of the scratch's
  /// own; returns them.
  std::span<const CachedWeight> Drain(std::span<CachedWeight> room) {
    if (touched_.size() > room.size()) {
      spill_.resize(touched_.size());
      room = spill_;
    }
    const size_t count = touched_.size();
    for (size_t j = 0; j < count; ++j) {
      room[j] = {touched_[j], weight_[touched_[j]]};
    }
    Reset();
    return room.first(count);
  }

  /// Fills gains_[q] = join gain of the accumulated node into q for every
  /// q in [0, k), in one batched pass over the contiguous σ/Λ̂ arrays.
  void ComputeAllJoinGains(const CommunityState& state,
                           const std::vector<double>& before,
                           const NodeProfile& node) {
    JoinGainBatch(state, node, weight_.data(), before.data(),
                  num_communities_, gains_.data());
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
  std::vector<CachedWeight> spill_;
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
  /// Node i's slots, for WeightToCommunity::Drain to fill.
  std::span<CachedWeight> Slots(size_t i) {
    return {cache_.data() + cache_offsets_[i],
            cache_offsets_[i + 1] - cache_offsets_[i]};
  }
  /// Records that Drain left `count` entries in node i's slots; returns
  /// false, saving nothing, when that many do not fit (Drain spilled them).
  bool Keep(size_t i, size_t count) {
    if (count > cache_offsets_[i + 1] - cache_offsets_[i]) return false;
    cache_size_[i] = static_cast<uint32_t>(count);
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

// The sweep positions whose visit may still move a node, one bit each.
// Next() walks them in position order and rereads the word at each call,
// so a bit set ahead of the walk is visited in the same sweep and one set
// behind it in the next: the visits of an in-order scan of every
// position, minus those of settled nodes.
class LivePositions {
 public:
  static constexpr size_t kEnd = SIZE_MAX;

  explicit LivePositions(size_t n) : words_((n + 63) / 64, ~uint64_t{0}) {
    if (n % 64 != 0) words_.back() = (uint64_t{1} << (n % 64)) - 1;
  }

  void Set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  void Clear(size_t i) { words_[i / 64] &= ~(uint64_t{1} << (i % 64)); }

  /// The first set position ≥ `from`, or kEnd.
  size_t Next(size_t from) const {
    size_t w = from / 64;
    if (w >= words_.size()) return kEnd;
    uint64_t bits = words_[w] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == words_.size()) return kEnd;
      bits = words_[w];
    }
    return w * 64 + static_cast<size_t>(std::countr_zero(bits));
  }

 private:
  std::vector<uint64_t> words_;
};

// The outcome of one phase-2 visit's candidate scan: the chosen shard (p
// itself when no move pays), the move's gain, w{v, p} and w{v, best}.
struct Choice {
  ShardId best;
  double gain;
  double weight_to_p;
  double weight_to_best;
};

// Eq. 9: the candidates are the communities of v's saved sums, scanned in
// their touched order; gains within 1e-15 of the best break toward the
// smaller shard id.
Choice ChooseAmongTouched(const CommunityState& state,
                          const std::vector<double>& before,
                          const NodeProfile& node, ShardId p,
                          std::span<const CachedWeight> sums) {
  double weight_to_p = 0.0;
  for (const CachedWeight& entry : sums) {
    if (entry.community == p) {
      weight_to_p = entry.weight;
      break;
    }
  }
  const double leave =
      LeaveDelta(state, p, node, weight_to_p, before[p]).throughput_gain;
  Choice choice{p, 0.0, weight_to_p, weight_to_p};
  for (const CachedWeight& entry : sums) {
    const ShardId q = entry.community;
    if (q == p) continue;
    const double gain =
        leave +
        JoinDelta(state, q, node, entry.weight, before[q]).throughput_gain;
    if (gain > choice.gain + 1e-15) {
      choice = {q, gain, weight_to_p, entry.weight};
    } else if (gain >= choice.gain - 1e-15 && choice.best != p &&
               q < choice.best) {
      choice.best = q;
      choice.weight_to_best = entry.weight;
    }
  }
  return choice;
}

// The search_all_communities ablation: every shard is a candidate, so the
// sums go back into the k-wide scratch for one batched pass.
Choice ChooseAmongAll(const CommunityState& state,
                      const std::vector<double>& before,
                      const NodeProfile& node, ShardId p,
                      uint32_t k, std::span<const CachedWeight> sums,
                      WeightToCommunity* scratch) {
  scratch->Load(sums);
  scratch->ComputeAllJoinGains(state, before, node);
  const double weight_to_p = scratch->WeightTo(p);
  const double leave =
      LeaveDelta(state, p, node, weight_to_p, before[p]).throughput_gain;
  Choice choice{p, 0.0, weight_to_p, weight_to_p};
  for (ShardId q = 0; q < k; ++q) {
    if (q == p) continue;
    const double gain = leave + scratch->Gain(q);
    if (gain > choice.gain + 1e-15) {
      choice.best = q;
      choice.gain = gain;
    } else if (gain >= choice.gain - 1e-15 && choice.best != p &&
               q < choice.best) {
      choice.best = q;
    }
  }
  choice.weight_to_best = scratch->WeightTo(choice.best);
  scratch->Reset();
  return choice;
}

// Phase 1b's rule for a node with no edge and no self-loop. Joining adds
// exactly 0 to σ and Λ̂, so every shard's join gain is 0, the C_v = ∅ scan
// keeps shard 0, and the join leaves σ/Λ̂ bit for bit (they start at +0.0
// and only ever add, so none is −0.0). Assigns such a node to shard 0 and
// returns true; returns false for every other node, a node with only a
// self-loop included. The isolated-node placement of ROADMAP item 1(a)
// replaces this rule.
bool AbsorbZeroDegree(std::span<const graph::Neighbor> row,
                      const NodeProfile& node, NodeId v,
                      Allocation* allocation) {
  if (!row.empty() || node.self_loop != 0.0 || node.strength != 0.0) {
    return false;
  }
  allocation->Assign(v, 0);
  return true;
}

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
  // keep the ranking deterministic. The order is total, so ranking only
  // the top k gives the ranks a full sort would.
  const uint32_t kept = std::min(params.num_shards, l);
  std::vector<uint32_t> ranked(l);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::partial_sort(ranked.begin(), ranked.begin() + kept, ranked.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (rank_state.sigma[a] != rank_state.sigma[b]) {
                        return rank_state.sigma[a] > rank_state.sigma[b];
                      }
                      return a < b;
                    });

  std::vector<ShardId> community_to_shard(l, kUnassignedShard);
  for (uint32_t rank = 0; rank < kept; ++rank) {
    community_to_shard[ranked[rank]] = rank;
  }
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    const ShardId s = community_to_shard[louvain.community[v]];
    if (s != kUnassignedShard) allocation->Assign(static_cast<NodeId>(v), s);
  }
  return l;
}

}  // namespace

void AssignUnassignedNodes(const TransactionGraph& graph,
                           const std::vector<NodeId>& node_order,
                           const AllocationParams& params,
                           Allocation* allocation, CommunityState* state) {
  WeightToCommunity scratch(params.num_shards);
  std::vector<double> before = ClampedThroughputs(*state);
  for (NodeId v : node_order) {
    if (allocation->IsAssigned(v)) continue;
    const std::span<const graph::Neighbor> row = graph.Neighbors(v);
    const NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
    if (AbsorbZeroDegree(row, node, v, allocation)) continue;
    scratch.Accumulate(row, *allocation);

    // Max join gain; ties break toward the smaller shard id (determinism).
    ShardId best = kUnassignedShard;
    double best_gain = 0.0;
    if (!scratch.touched().empty()) {
      for (ShardId q : scratch.touched()) {
        const double gain =
            JoinDelta(*state, q, node, scratch.WeightTo(q), before[q])
                .throughput_gain;
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        } else if (gain >= best_gain - 1e-15 && q < best) {
          best = q;
        }
      }
    } else {
      // C_v = ∅: force the candidate set to all k communities (Alg. 1 l.5).
      scratch.ComputeAllJoinGains(*state, before, node);
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
  // pos_of[v]: v's sweep position. A node listed twice has no one
  // position to wake and no one slot to save into: then every position
  // stays live and no sum is saved.
  constexpr uint32_t kNoPosition = UINT32_MAX;
  std::vector<uint32_t> pos_of(graph.num_nodes(), kNoPosition);
  bool repeats = false;
  for (size_t i = 0; i < sweep_nodes.size(); ++i) {
    uint32_t& pos = pos_of[sweep_nodes[i]];
    repeats = repeats || pos != kNoPosition;
    pos = static_cast<uint32_t>(i);
  }
  const bool search_all = options.search_all_communities;
  // Under search_all_communities every shard is a candidate, so no node
  // is ever settled.
  const bool settles = !repeats && !search_all;
  PackedRows rows(graph, sweep_nodes, repeats ? 0 : params.num_shards);
  LivePositions live(sweep_nodes.size());
  // reload[i]: position i's saved sums are current (no neighbour of its
  // node has moved since they were summed).
  std::vector<uint8_t> reload(sweep_nodes.size(), 0);
  int sweeps = 0;
  for (; sweeps < options.max_sweeps; ++sweeps) {
    double sweep_gain = 0.0;
    for (size_t i = live.Next(0); i != LivePositions::kEnd;
         i = live.Next(i + 1)) {
      const NodeId v = sweep_nodes[i];
      const ShardId p = allocation->shard_of(v);
      if (p == kUnassignedShard) continue;  // Defensive; phase 1 assigns all.
      const NodeProfile& node = rows.Profile(i);
      std::span<const CachedWeight> sums;
      if (reload[i] != 0) {
        sums = rows.Cached(i);
      } else {
        scratch.Accumulate(rows.Row(i), *allocation);
        sums = scratch.Drain(rows.Slots(i));
        reload[i] = !repeats && rows.Keep(i, sums.size());
      }

      const Choice choice =
          search_all ? ChooseAmongAll(*state, before, node, p,
                                      params.num_shards, sums, &scratch)
                     : ChooseAmongTouched(*state, before, node, p, sums);
      const bool moves = choice.best != p && choice.gain > 0.0;
      if (moves) {
        ApplyLeave(state, p, node, choice.weight_to_p);
        ApplyJoin(state, choice.best, node, choice.weight_to_best);
        before[p] = state->ThroughputOf(p);
        before[choice.best] = state->ThroughputOf(choice.best);
        allocation->Assign(v, choice.best);
        sweep_gain += choice.gain;
      }
      // Settled: every assigned neighbour is in v's shard, so C_v holds
      // that shard alone and v cannot move until a neighbour does.
      if (settles && std::all_of(sums.begin(), sums.end(),
                                 [q = allocation->shard_of(v)](
                                     const CachedWeight& entry) {
                                   return entry.community == q;
                                 })) {
        live.Clear(i);
      }
      if (moves && !repeats) {
        for (const graph::Neighbor& nb : rows.Row(i)) {
          const uint32_t pos = pos_of[nb.node];
          if (pos == kNoPosition) continue;
          live.Set(pos);
          reload[pos] = 0;
        }
      }
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
