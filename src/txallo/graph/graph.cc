#include "txallo/graph/graph.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <utility>

namespace txallo::graph {

void TransactionGraph::AddEdge(NodeId u, NodeId v, double weight) {
  if (u == v) {
    AddSelfLoop(u, weight);
    return;
  }
  NodeId hi = std::max(u, v);
  EnsureNodeCount(static_cast<size_t>(hi) + 1);
  log_.push_back({u, v, weight});
}

void TransactionGraph::AddSelfLoop(NodeId v, double weight) {
  EnsureNodeCount(static_cast<size_t>(v) + 1);
  log_.push_back({v, v, weight});
}

namespace {

// One directed half of a logged edge: `half` goes into `owner`'s row.
struct OwnedHalf {
  NodeId owner;
  Neighbor half;
};

// Sorts one owner's pending run by neighbor id and collapses duplicate
// neighbors; returns the run's new length. Legacy code verbatim: the
// unstable sort + in-order duplicate collapse is part of the
// bit-compatibility contract (FP addition is order-sensitive).
size_t SortAndDedup(std::span<Neighbor> pend) {
  std::sort(pend.begin(), pend.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.node < b.node;
            });
  size_t w = 0;
  for (size_t r = 0; r < pend.size(); ++r) {
    if (w > 0 && pend[w - 1].node == pend[r].node) {
      pend[w - 1].weight += pend[r].weight;
    } else {
      pend[w++] = pend[r];
    }
  }
  return w;
}

// Appends the merge of a sorted row and a sorted pending run to `out`.
// Same walk as the legacy MergeInto.
void MergeRows(std::span<const Neighbor> adj, std::span<const Neighbor> pend,
               std::vector<Neighbor>* out) {
  std::vector<Neighbor>& merged = *out;
  size_t i = 0, j = 0;
  while (i < adj.size() || j < pend.size()) {
    if (j == pend.size() || (i < adj.size() && adj[i].node < pend[j].node)) {
      merged.push_back(adj[i++]);
    } else if (i == adj.size() || pend[j].node < adj[i].node) {
      merged.push_back(pend[j++]);
    } else {
      merged.push_back({adj[i].node, adj[i].weight + pend[j].weight});
      ++i;
      ++j;
    }
  }
}

}  // namespace

void TransactionGraph::Consolidate() {
  if (log_.empty() && !scaled_ && core_ != nullptr) return;
  core_ = Fold();
  log_.clear();
  scaled_ = false;
}

std::shared_ptr<GraphCore> TransactionGraph::Fold() const {
  // Stable LSD radix sort of the logged edges' directed halves by owner, a
  // counting sort per 11-bit digit of the largest id. The halves go in as
  // each edge's u-half then v-half, in log order, so every owner's run is
  // exactly the legacy per-node pending buffer (same insertion order, same
  // values). Cost is O(|log|) per digit, whatever the node count.
  constexpr size_t kDigitBits = 11;
  constexpr size_t kDigitMask = (size_t{1} << kDigitBits) - 1;
  std::vector<OwnedHalf> halves;
  halves.reserve(2 * log_.size());
  for (const DeltaEdge& e : log_) {
    if (e.u == e.v) continue;
    halves.push_back({e.u, {e.v, e.weight}});
    halves.push_back({e.v, {e.u, e.weight}});
  }
  {
    // Scoped so the second buffer is freed before the new core is built.
    std::vector<OwnedHalf> sorted(halves.size());
    const size_t max_id = num_nodes_ > 0 ? num_nodes_ - 1 : 0;
    for (size_t shift = 0; (max_id >> shift) != 0; shift += kDigitBits) {
      std::array<size_t, kDigitMask + 1> start{};
      const auto digit = [shift](const OwnedHalf& h) {
        return (size_t{h.owner} >> shift) & kDigitMask;
      };
      for (const OwnedHalf& h : halves) ++start[digit(h)];
      size_t offset = 0;
      for (size_t& slot : start) {
        const size_t count = slot;
        slot = offset;
        offset += count;
      }
      for (const OwnedHalf& h : halves) {
        sorted[start[digit(h)]++] = h;
      }
      halves.swap(sorted);
    }
  }

  auto core = std::make_shared<GraphCore>();
  const size_t n = num_nodes_;
  const size_t frozen = core_ != nullptr ? core_->num_nodes() : 0;
  core->offsets.resize(n + 1);
  core->entries.reserve((core_ != nullptr ? core_->entries.size() : 0) +
                        halves.size());
  core->self_loop.resize(n);
  core->strength.resize(n);
  if (frozen > 0) {
    std::copy(core_->self_loop.begin(), core_->self_loop.end(),
              core->self_loop.begin());
    std::copy(core_->strength.begin(), core_->strength.end(),
              core->strength.begin());
  }

  // Rows of nodes [v, end) the log does not touch: one block copy of their
  // core rows, empty rows past the old core.
  size_t v = 0;
  const auto copy_rows_until = [&](size_t end) {
    const size_t copied = std::min(end, frozen);
    if (v < copied) {
      const size_t base = core_->offsets[v];
      const size_t start = core->entries.size();
      core->entries.insert(core->entries.end(),
                           core_->entries.begin() + base,
                           core_->entries.begin() + core_->offsets[copied]);
      for (size_t u = v; u < copied; ++u) {
        core->offsets[u + 1] = core_->offsets[u + 1] - base + start;
      }
    }
    for (size_t u = std::max(v, copied); u < end; ++u) {
      core->offsets[u + 1] = core->entries.size();
    }
    v = end;
  };

  // One merged row per touched owner, in id order. Strength is re-summed
  // over the merged row in row order, as the legacy consolidation did for
  // every node; untouched nodes keep their (bit-identical) cached values.
  std::vector<Neighbor> run;
  for (size_t next = 0; next < halves.size();) {
    const NodeId owner = halves[next].owner;
    run.clear();
    for (; next < halves.size() && halves[next].owner == owner; ++next) {
      run.push_back(halves[next].half);
    }
    copy_rows_until(owner);
    const std::span<const Neighbor> old_row =
        owner < frozen ? core_->Row(owner) : std::span<const Neighbor>{};
    const size_t merged_begin = core->entries.size();
    MergeRows(old_row, std::span<Neighbor>(run).first(SortAndDedup(run)),
              &core->entries);
    double s = 0.0;
    for (size_t i = merged_begin; i < core->entries.size(); ++i) {
      s += core->entries[i].weight;
    }
    core->strength[owner] = s;
    core->offsets[owner + 1] = core->entries.size();
    v = owner + 1;
  }
  copy_rows_until(n);

  // Self-loop additions in log order: the legacy `self_loop_[v] += weight`.
  for (const DeltaEdge& e : log_) {
    if (e.u == e.v) core->self_loop[e.u] += e.weight;
  }
  if (scaled_) {
    for (size_t u = 0; u < n; ++u) {
      double s = 0.0;
      for (const Neighbor& nb : core->Row(static_cast<NodeId>(u))) {
        s += nb.weight;
      }
      core->strength[u] = s;
    }
  }
  // The legacy consolidation re-accumulated the total on every call, in id
  // order with the strength and (doubled) self-loop adds interleaved.
  double total = 0.0;
  for (size_t u = 0; u < n; ++u) {
    total += core->strength[u];
    total += 2.0 * core->self_loop[u];
  }
  core->total_weight = total / 2.0;  // Edges counted twice, self-loops once.
  return core;
}

bool TransactionGraph::AdoptCore(
    std::shared_ptr<const GraphCore> fold,
    const std::shared_ptr<const GraphCore>& base_core, size_t logged_edges) {
  if (fold == nullptr || fold == base_core || core_ != base_core ||
      logged_edges > log_.size()) {
    return false;
  }
  // The core is still the copy's, so the log only grew since: its first
  // `logged_edges` entries are the ones the fold merged. The fold also
  // consumed a pending post-scale strength refresh.
  core_ = std::move(fold);
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(
                                              logged_edges));
  scaled_ = false;
  return true;
}

void TransactionGraph::ScaleWeights(double factor) {
  assert(consolidated());
  // Scale a private copy of the core entry by entry — the same per-entry
  // multiplies the legacy implementation performed. The next Consolidate()
  // re-sums strengths from the scaled rows, again like the legacy code.
  std::shared_ptr<GraphCore> core =
      core_ != nullptr ? std::make_shared<GraphCore>(*core_) : Fold();
  for (Neighbor& nb : core->entries) nb.weight *= factor;
  for (double& s : core->self_loop) s *= factor;
  for (double& s : core->strength) s *= factor;
  core->total_weight *= factor;
  core_ = std::move(core);
  scaled_ = true;
}

double TransactionGraph::EdgeWeight(NodeId u, NodeId v) const {
  if (u == v) return SelfLoop(u);
  const std::span<const Neighbor> adj = Neighbors(u);
  auto it = std::lower_bound(adj.begin(), adj.end(), v,
                             [](const Neighbor& nb, NodeId target) {
                               return nb.node < target;
                             });
  if (it == adj.end() || it->node != v) return 0.0;
  return it->weight;
}

size_t TransactionGraph::SnapshotBytes() const {
  return log_.size() * sizeof(DeltaEdge) + sizeof(*this);
}

}  // namespace txallo::graph
