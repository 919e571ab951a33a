#include "txallo/core/controller.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "txallo/common/math.h"

namespace txallo::core {

using alloc::kUnassignedShard;
using alloc::ShardId;
using graph::NodeId;

TxAlloController::TxAlloController(const chain::AccountRegistry* registry,
                                   alloc::AllocationParams params,
                                   ControllerOptions options)
    : registry_(registry), params_(params), options_(options) {
  allocation_ = alloc::Allocation(0, params_.num_shards);
  state_.eta = params_.eta;
  state_.capacity = params_.capacity;
  state_.sigma.assign(params_.num_shards, 0.0);
  state_.lambda_hat.assign(params_.num_shards, 0.0);
}

void TxAlloController::AccumulateEdgeIntoState(NodeId u, NodeId v,
                                               double weight) {
  const ShardId cu =
      u < allocation_.num_accounts() && allocation_.IsAssigned(u)
          ? allocation_.shard_of(u)
          : kUnassignedShard;
  const ShardId cv =
      v < allocation_.num_accounts() && allocation_.IsAssigned(v)
          ? allocation_.shard_of(v)
          : kUnassignedShard;
  if (u == v) {
    // Self-loop: intra workload + full throughput for the owning shard.
    if (cu != kUnassignedShard) {
      state_.sigma[cu] += weight;
      state_.lambda_hat[cu] += weight;
    }
    return;
  }
  if (cu != kUnassignedShard && cu == cv) {
    state_.sigma[cu] += weight;
    state_.lambda_hat[cu] += weight;
    return;
  }
  // Cross-shard (or one side unassigned): each assigned side carries η
  // workload and half the throughput credit. The unassigned side's
  // contribution is accounted when that node joins (JoinDelta's η·s term).
  if (cu != kUnassignedShard) {
    state_.sigma[cu] += params_.eta * weight;
    state_.lambda_hat[cu] += 0.5 * weight;
  }
  if (cv != kUnassignedShard) {
    state_.sigma[cv] += params_.eta * weight;
    state_.lambda_hat[cv] += 0.5 * weight;
  }
}

void TxAlloController::ApplyBlock(const chain::Block& block) {
  for (const chain::Transaction& tx : block.transactions()) {
    ++transactions_applied_;
    const std::span<const chain::AccountId> accounts = tx.accounts();
    if (accounts.empty()) continue;
    // Grow tracking structures for brand-new accounts.
    const chain::AccountId max_id = accounts.back();  // accounts() sorted.
    if (static_cast<size_t>(max_id) >= touched_flag_.size()) {
      touched_flag_.resize(static_cast<size_t>(max_id) + 1, 0);
    }
    allocation_.GrowAccounts(static_cast<size_t>(max_id) + 1);
    for (chain::AccountId a : accounts) {
      if (touched_flag_[a] == 0) {
        touched_flag_[a] = 1;
        touched_.push_back(a);
      }
    }
    // Mirror GraphBuilder's weight-splitting, updating graph and state
    // together so they never diverge.
    if (accounts.size() == 1) {
      graph_.AddSelfLoop(accounts[0], 1.0);
      AccumulateEdgeIntoState(accounts[0], accounts[0], 1.0);
      continue;
    }
    const double share =
        1.0 / static_cast<double>(EdgeSplitCount(accounts.size()));
    for (size_t i = 0; i < accounts.size(); ++i) {
      for (size_t j = i + 1; j < accounts.size(); ++j) {
        graph_.AddEdge(accounts[i], accounts[j], share);
        AccumulateEdgeIntoState(accounts[i], accounts[j], share);
      }
    }
  }
}

void TxAlloController::RefreshCapacity() {
  if (options_.scale_capacity_with_transactions && params_.num_shards > 0) {
    params_.capacity = static_cast<double>(transactions_applied_) /
                       params_.num_shards;
    params_.epsilon = 1e-5 * static_cast<double>(transactions_applied_);
    state_.capacity = params_.capacity;
  }
}

namespace {

// The deterministic node order: (OrderKey, id) ascending.
struct HashOrderLess {
  const chain::AccountRegistry* registry;
  bool operator()(NodeId a, NodeId b) const {
    const uint64_t ka = registry->OrderKey(a);
    const uint64_t kb = registry->OrderKey(b);
    return ka < kb || (ka == kb && a < b);
  }
};

// `nodes` sorted by (OrderKey, id). Sorts (key, id) pairs looked up once,
// not two registry lookups per comparison; the order is the same strict
// total order either way.
std::vector<NodeId> InHashOrder(const chain::AccountRegistry& registry,
                                const std::vector<NodeId>& nodes) {
  std::vector<std::pair<uint64_t, NodeId>> keyed;
  keyed.reserve(nodes.size());
  for (NodeId v : nodes) keyed.emplace_back(registry.OrderKey(v), v);
  std::sort(keyed.begin(), keyed.end());
  std::vector<NodeId> order;
  order.reserve(keyed.size());
  for (const auto& entry : keyed) order.push_back(entry.second);
  return order;
}

// V̂ is filtered out of the kept order once it holds at least
// 1/kFilterShare of the nodes. Either way gives the same order; the share
// trades an O(N) scan against an O(|V̂| log |V̂|) sort. Timed per adaptive
// step (Release, 4-vCPU Xeon guest), the scan costs 4.8–7.1 ns a node and
// the sort 107–115 ns a V̂ entry, so they break even at |V̂|/N ≈ 1/22–1/15.
// perf_ledger's adaptive steps sit above it (closed-hybrid-drift: 15.7% of
// 100k nodes, scan 0.64 ms against sort 1.80 ms; open-stress-state: 19.7%,
// 0.36 against 1.09 ms), table_headline's --scale=medium windows below it
// (2.1% of 320k nodes, sort 0.71 ms against scan 1.55 ms).
constexpr size_t kFilterShare = 16;

}  // namespace

std::vector<NodeId> TxAlloController::PendingTouchedNodes() const {
  // Filtering needs every touched node in the kept order. A step extends
  // the order first; between steps, accounts born since the last one are
  // missing from it, and V̂ is sorted instead.
  if (touched_.size() * kFilterShare < node_order_.size() ||
      touched_flag_.size() > node_order_.size()) {
    return InHashOrder(*registry_, touched_);
  }
  std::vector<NodeId> order;
  order.reserve(touched_.size());
  for (NodeId v : node_order_) {
    if (v < touched_flag_.size() && touched_flag_[v] != 0) order.push_back(v);
  }
  return order;
}

void TxAlloController::ExtendNodeOrder() {
  const size_t kept = node_order_.size();
  const size_t n = graph_.num_nodes();
  if (n <= kept) return;
  std::vector<NodeId> added(n - kept);
  std::iota(added.begin(), added.end(), static_cast<NodeId>(kept));
  const std::vector<NodeId> sorted = InHashOrder(*registry_, added);
  node_order_.insert(node_order_.end(), sorted.begin(), sorted.end());
  std::inplace_merge(node_order_.begin(), node_order_.begin() + kept,
                     node_order_.end(), HashOrderLess{registry_});
}

Result<AdaptiveRunInfo> TxAlloController::StepAdaptive() {
  graph_.Consolidate();
  allocation_.GrowAccounts(graph_.num_nodes());
  RefreshCapacity();
  ExtendNodeOrder();
  std::vector<NodeId> touched = PendingTouchedNodes();
  AdaptiveRunInfo info;
  Status st = RunAdaptiveTxAllo(graph_, touched, params_, options_.global,
                                &allocation_, &state_, &info);
  if (!st.ok()) return st;
  for (NodeId v : touched_) touched_flag_[v] = 0;
  touched_.clear();
  return info;
}

Result<GlobalRunInfo> TxAlloController::StepGlobal() {
  graph_.Consolidate();
  allocation_.GrowAccounts(graph_.num_nodes());
  RefreshCapacity();
  ExtendNodeOrder();
  GlobalRunInfo info;
  Result<alloc::Allocation> result = RunGlobalTxAllo(
      graph_, node_order_, params_, options_.global, &info);
  if (!result.ok()) return result.status();
  allocation_ = std::move(result.value());
  RecomputeState();
  for (NodeId v : touched_) touched_flag_[v] = 0;
  touched_.clear();
  return info;
}

TxAlloController::Checkpoint TxAlloController::SaveCheckpoint() const {
  return Checkpoint{allocation_, state_, touched_, params_};
}

void TxAlloController::RestoreCheckpoint(Checkpoint checkpoint) {
  allocation_ = std::move(checkpoint.allocation);
  state_ = std::move(checkpoint.state);
  touched_ = std::move(checkpoint.touched);
  params_ = checkpoint.params;
  // A step only clears flags of V̂ members, and touched_flag_ only grows in
  // ApplyBlock(), so re-flagging the saved V̂ restores the bitmap.
  for (NodeId v : touched_) touched_flag_[v] = 1;
}

void TxAlloController::RecomputeState() {
  graph_.Consolidate();
  state_ = alloc::ComputeCommunityState(graph_, allocation_, params_);
}

Status TxAlloController::ApplyHistoryDecay(double factor) {
  if (factor <= 0.0 || factor > 1.0) {
    return Status::InvalidArgument("decay factor must be in (0, 1]");
  }
  graph_.Consolidate();
  graph_.ScaleWeights(factor);
  // σ and Λ̂ are linear in the edge weights, so the incremental state
  // scales with them (verified against the from-scratch oracle in tests).
  for (double& s : state_.sigma) s *= factor;
  for (double& l : state_.lambda_hat) l *= factor;
  return Status::OK();
}

}  // namespace txallo::core
