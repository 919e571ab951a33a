#include "txallo/graph/graph.h"

#include <algorithm>
#include <array>

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
  // Immediate accumulation onto the current read value, exactly the legacy
  // `self_loop_[v] += weight`. The shadow entry survives AdoptCore() so
  // accumulations racing a fold-in-flight are never lost.
  const double current = SelfLoop(v);
  self_ovl_[v] = current + weight;
  caches_dirty_ = true;
}

namespace {

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

size_t TransactionGraph::MergeLogRuns() {
  // Stable LSD radix sort of the log's directed halves by owner, a counting
  // sort per 11-bit digit of the largest id. The halves go in as each
  // edge's u-half then v-half, in log order, so every owner's run is
  // exactly the legacy per-node pending buffer (same insertion order, same
  // values). Cost is O(|log|) per digit, whatever the node count.
  constexpr size_t kDigitBits = 11;
  constexpr size_t kDigitMask = (size_t{1} << kDigitBits) - 1;
  std::vector<OwnedHalf> halves;
  halves.reserve(2 * log_.size());
  for (const DeltaEdge& e : log_) {
    halves.push_back({e.u, {e.v, e.weight}});
    halves.push_back({e.v, {e.u, e.weight}});
  }
  std::vector<OwnedHalf> sorted(halves.size());
  for (size_t shift = 0; ((num_nodes_ - 1) >> shift) != 0;
       shift += kDigitBits) {
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

  // One merged row per touched owner, in id order, read against the
  // owner's current row (shadow or core). Strength is re-summed over the
  // merged row in row order, as the legacy consolidation did for every
  // node; untouched nodes keep their (bit-identical) cached values.
  size_t overlay = overlay_entries_;
  for (size_t next = 0; next < halves.size();) {
    const NodeId owner = halves[next].owner;
    scratch_halves_.clear();
    for (; next < halves.size() && halves[next].owner == owner; ++next) {
      scratch_halves_.push_back(halves[next].half);
    }
    const std::span<Neighbor> run(scratch_halves_);
    const std::span<const Neighbor> old_row = Neighbors(owner);
    const size_t merged_begin = scratch_merged_.size();
    MergeRows(old_row, run.first(SortAndDedup(run)), &scratch_merged_);
    double s = 0.0;
    for (size_t i = merged_begin; i < scratch_merged_.size(); ++i) {
      s += scratch_merged_[i].weight;
    }
    scratch_runs_.push_back({owner, scratch_merged_.size(), s});

    const size_t new_len = scratch_merged_.size() - merged_begin;
    const bool shadowed = !rows_.empty() && rows_.contains(owner);
    // A core row (if any) stays in the core; a shadow is replaced.
    overlay += new_len - (shadowed ? old_row.size() : 0);
    degree_sum_ += new_len - old_row.size();
  }
  log_.clear();
  scratch_halves_.clear();
  return overlay;
}

void TransactionGraph::PublishShadows(size_t overlay_entries) {
  size_t begin = 0;
  for (const MergedRun& run : scratch_runs_) {
    const ShadowRow shadow{
        row_arena_.Append({scratch_merged_.data() + begin, run.end - begin}),
        run.strength};
    begin = run.end;
    auto [it, inserted] = rows_.emplace(run.owner, shadow);
    if (!inserted) it->second = shadow;
  }
  overlay_entries_ = overlay_entries;
  scratch_runs_.clear();
  scratch_merged_.clear();
}

void TransactionGraph::RecomputeTotals() {
  // The legacy consolidation re-accumulated the total on every call, in id
  // order with the strength and (doubled) self-loop adds interleaved.
  double total = 0.0;
  for (size_t v = 0; v < num_nodes_; ++v) {
    total += Strength(static_cast<NodeId>(v));
    total += 2.0 * SelfLoop(static_cast<NodeId>(v));
  }
  total_weight_ = total / 2.0;  // Edges counted twice, self-loops once.
}

void TransactionGraph::Consolidate() { Consolidate(FoldRule::kHalf); }

bool TransactionGraph::Consolidate(FoldRule rule) {
  size_t overlay = overlay_entries_;
  if (!log_.empty()) {
    ++generation_;
    caches_dirty_ = true;
    overlay = MergeLogRuns();
  }
  // Freeze policy (a pure function of graph state, so it is deterministic
  // and thread-count independent): build the first core eagerly — one-shot
  // graphs then read pure CSR — and re-freeze once the overlay outgrows
  // half the core. A graph scaled since the last consolidation always
  // folds, re-summing every strength from its (scaled) row: the legacy
  // consolidation switched the cached (Σw)·f to Σ(w·f). Strategy adapters
  // normally clear the overlay every rebalance via AdoptCore(), so their
  // consolidations stay O(delta) and never trip the half rule.
  bool by_rule = false;
  if (!scaled_ && core_ != nullptr && overlay * 2 <= core_->entries.size()) {
    switch (rule) {
      case FoldRule::kHalf:
        break;
      case FoldRule::kQuarter:
        by_rule = overlay * 4 > core_->entries.size();
        break;
      case FoldRule::kAlways:
        by_rule = !rows_.empty() || !scratch_runs_.empty() ||
                  !self_ovl_.empty();
        break;
    }
    if (!by_rule) {
      PublishShadows(overlay);
      if (caches_dirty_) RecomputeTotals();
      caches_dirty_ = false;
      if (row_arena_.size() > 64 &&
          row_arena_.size() > 2 * overlay_entries_) {
        CompactArena();
      }
      return false;
    }
  }
  // The fold carries every read value over verbatim (or re-sums strengths
  // after a scale), so the total summed from the new core is the one the
  // legacy code summed over shadows before folding, without a shadow probe
  // per node.
  InstallCore(FoldCore(/*recompute_strengths=*/scaled_));
  if (caches_dirty_ || scaled_) RecomputeTotals();
  caches_dirty_ = false;
  scaled_ = false;
  return by_rule;
}

std::shared_ptr<GraphCore> TransactionGraph::FoldCore(
    bool recompute_strengths) const {
  assert(log_.empty());
  // Nodes whose row is not the core's, each list in id order: the merged
  // runs, and the shadow rows (a run replaces its owner's shadow).
  std::vector<std::pair<NodeId, const ShadowRow*>> shadows;
  shadows.reserve(rows_.size());
  for (const auto& entry : rows_) shadows.emplace_back(entry.first, &entry.second);
  std::sort(shadows.begin(), shadows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  auto core = std::make_shared<GraphCore>();
  const size_t n = num_nodes_;
  const size_t frozen = core_ != nullptr ? core_->num_nodes() : 0;
  core->offsets.resize(n + 1);
  core->entries.reserve(degree_sum_);
  core->self_loop.resize(n);
  core->strength.resize(n);
  core->offsets[0] = 0;

  size_t run = 0, shadow = 0, merged_begin = 0;
  size_t v = 0;
  while (v < n) {
    const size_t next_run =
        run < scratch_runs_.size() ? scratch_runs_[run].owner : n;
    const size_t next_shadow =
        shadow < shadows.size() ? shadows[shadow].first : n;
    const size_t next = std::min(next_run, next_shadow);
    // Untouched nodes [v, next): one block copy of their core rows.
    const size_t copied = std::min(next, frozen);
    if (v < copied) {
      const size_t base = core_->offsets[v];
      const size_t start = core->entries.size();
      core->entries.insert(core->entries.end(),
                           core_->entries.begin() + base,
                           core_->entries.begin() + core_->offsets[copied]);
      for (size_t u = v; u < copied; ++u) {
        core->offsets[u + 1] = core_->offsets[u + 1] - base + start;
      }
      std::copy(core_->self_loop.begin() + v,
                core_->self_loop.begin() + copied, core->self_loop.begin() + v);
      std::copy(core_->strength.begin() + v, core_->strength.begin() + copied,
                core->strength.begin() + v);
    }
    for (size_t u = std::max(v, copied); u < next; ++u) {
      core->offsets[u + 1] = core->entries.size();  // Empty row, zero caches.
    }
    if (next == n) break;

    std::span<const Neighbor> row;
    if (next == next_run) {
      const MergedRun& merged = scratch_runs_[run++];
      row = {scratch_merged_.data() + merged_begin,
             merged.end - merged_begin};
      merged_begin = merged.end;
      core->strength[next] = merged.strength;
      if (next == next_shadow) ++shadow;
    } else {
      const ShadowRow& shadow_row = *shadows[shadow++].second;
      row = row_arena_.View(shadow_row.row);
      core->strength[next] = shadow_row.strength;
    }
    core->entries.insert(core->entries.end(), row.begin(), row.end());
    core->offsets[next + 1] = core->entries.size();
    if (next < frozen) core->self_loop[next] = core_->self_loop[next];
    v = next + 1;
  }
  for (const auto& entry : self_ovl_) core->self_loop[entry.first] = entry.second;
  if (recompute_strengths) {
    for (size_t u = 0; u < n; ++u) {
      double s = 0.0;
      for (const Neighbor& nb : core->Row(static_cast<NodeId>(u))) {
        s += nb.weight;
      }
      core->strength[u] = s;
    }
  }
  return core;
}

void TransactionGraph::InstallCore(std::shared_ptr<const GraphCore> core) {
  core_ = std::move(core);
  rows_.clear();
  row_arena_.Clear();
  self_ovl_.clear();
  overlay_entries_ = 0;
  scratch_runs_.clear();
  scratch_merged_.clear();
  ++generation_;
}

void TransactionGraph::CompactArena() {
  common::Arena<Neighbor> compacted;
  compacted.reserve(overlay_entries_);
  for (auto& entry : rows_) {
    entry.second.row = compacted.Append(row_arena_.View(entry.second.row));
  }
  row_arena_ = std::move(compacted);
}

void TransactionGraph::Refreeze() { Consolidate(FoldRule::kAlways); }

bool TransactionGraph::MaybeRefreeze() {
  return Consolidate(FoldRule::kQuarter);
}

bool TransactionGraph::AdoptCore(std::shared_ptr<const GraphCore> core,
                                 uint64_t fold_generation) {
  if (core == nullptr || fold_generation != generation_) return false;
  // The fold subsumes every edge-row/strength shadow (no consolidation ran
  // since the snapshot — that is what the generation match certifies).
  // Self-loop shadows may carry AddSelfLoop() accumulations newer than the
  // fold: keep exactly those that differ from the folded value.
  common::FlatMap<NodeId, double> kept;
  for (const auto& entry : self_ovl_) {
    const bool folded = entry.first < core->num_nodes() &&
                        core->self_loop[entry.first] == entry.second;
    if (!folded) kept.emplace(entry.first, entry.second);
  }
  core_ = std::move(core);
  rows_.clear();
  row_arena_.Clear();
  overlay_entries_ = 0;
  self_ovl_ = std::move(kept);
  // generation_ unchanged: adoption swaps representation, not content.
  return true;
}

void TransactionGraph::ScaleWeights(double factor) {
  assert(consolidated());
  // Fold first (read values carry over verbatim, including the cached
  // strengths), then scale every entry in place — the same per-entry
  // multiplies the legacy implementation performed. The next Consolidate()
  // re-sums strengths from the scaled rows, again like the legacy code.
  std::shared_ptr<GraphCore> core = FoldCore(/*recompute_strengths=*/false);
  for (Neighbor& nb : core->entries) nb.weight *= factor;
  for (double& s : core->self_loop) s *= factor;
  for (double& s : core->strength) s *= factor;
  InstallCore(std::move(core));
  total_weight_ *= factor;
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
  return log_.size() * sizeof(DeltaEdge) + row_arena_.MemoryBytes() +
         rows_.MemoryBytes() + self_ovl_.MemoryBytes() + sizeof(*this);
}

}  // namespace txallo::graph
