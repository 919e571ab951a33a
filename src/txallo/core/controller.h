// Hybrid TxAllo controller (paper §V-A): owns the ever-growing transaction
// graph and the live account-shard mapping, applies newly committed blocks,
// and runs A-TxAllo every τ1 blocks with periodic G-TxAllo refreshes every
// τ2 blocks. This is the component a sharded-blockchain node would embed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/graph_metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/chain/account.h"
#include "txallo/chain/block.h"
#include "txallo/common/status.h"
#include "txallo/core/adaptive.h"
#include "txallo/core/global.h"
#include "txallo/graph/graph.h"

namespace txallo::core {

/// Controller configuration.
struct ControllerOptions {
  GlobalOptions global;
  /// Rescale λ to |T|/k as transactions accumulate (the paper's λ = |T|/k
  /// experimental convention). When false, λ stays at params.capacity.
  bool scale_capacity_with_transactions = true;
};

/// Owns graph + allocation + community state and keeps them consistent as
/// blocks arrive. Not thread-safe (one consensus-driven writer, as in a
/// blockchain node).
class TxAlloController {
 public:
  /// `registry` provides the deterministic per-account ordering keys; it
  /// must outlive the controller and is shared with whoever creates
  /// accounts (e.g. the workload generator).
  TxAlloController(const chain::AccountRegistry* registry,
                   alloc::AllocationParams params,
                   ControllerOptions options = {});

  /// Absorbs one committed block: adds its edge weights to the graph,
  /// incrementally maintains the community state, and records the touched
  /// nodes in V̂ for the next adaptive step.
  void ApplyBlock(const chain::Block& block);

  /// Runs one A-TxAllo step over the V̂ accumulated since the last step
  /// (Algorithm 2) and clears V̂.
  Result<AdaptiveRunInfo> StepAdaptive();

  /// Runs a full G-TxAllo from scratch over the current graph, replacing
  /// the mapping and state; clears V̂ (a global step supersedes it).
  Result<GlobalRunInfo> StepGlobal();

  /// What StepAdaptive()/StepGlobal() change: the mapping, σ/Λ̂, V̂ and the
  /// λ/ε rescaling. A step leaves the graph's contents untouched (it only
  /// consolidates the delta log), so restoring the checkpoint taken
  /// before a step undoes that step exactly.
  struct Checkpoint {
    alloc::Allocation allocation;
    alloc::CommunityState state;
    std::vector<graph::NodeId> touched;
    alloc::AllocationParams params;
  };
  Checkpoint SaveCheckpoint() const;
  /// Precondition: no block was applied since `checkpoint` was saved.
  void RestoreCheckpoint(Checkpoint checkpoint);

  /// Re-derives the community state from scratch (drift resync; also used
  /// by tests to check the incremental bookkeeping).
  void RecomputeState();

  /// Applies one round of exponential history decay: every edge weight and
  /// the incremental σ/Λ̂ state scale by `factor` ∈ (0, 1]. Recency
  /// weighting for drifting workloads (the paper's future-work direction);
  /// call once per update window before StepAdaptive()/StepGlobal().
  /// When used, pair with scale_capacity_with_transactions = false and set
  /// params.capacity to the decayed-weight budget you want.
  Status ApplyHistoryDecay(double factor);

  const alloc::Allocation& allocation() const { return allocation_; }

  /// Immutable snapshot of the live mapping for concurrent consumers (the
  /// parallel engine's copy-on-write routing). The copy is the publication
  /// point: later controller updates never mutate a published snapshot.
  std::shared_ptr<const alloc::Allocation> ShareAllocation() const {
    return std::make_shared<const alloc::Allocation>(allocation_);
  }
  const alloc::CommunityState& state() const { return state_; }
  const graph::TransactionGraph& graph() const { return graph_; }
  const alloc::AllocationParams& params() const { return params_; }
  uint64_t transactions_applied() const { return transactions_applied_; }

  /// Current graph-model throughput Λ of the live mapping.
  double CurrentThroughput() const { return state_.TotalThroughput(); }

  /// Nodes currently queued in V̂ (deterministic hash order). Inside a step,
  /// a V̂ holding at least 1/16 of the nodes is filtered out of the kept
  /// node order (O(N)) instead of sorted (O(|V̂| log |V̂|)); the order is
  /// the same either way.
  std::vector<graph::NodeId> PendingTouchedNodes() const;

  /// The kept (OrderKey, id) order of nodes [0, node_order().size()): the
  /// order StepGlobal() sweeps. Each step extends it to every graph node.
  /// Read only by the order-cache test, which checks it against a fresh
  /// sort after every step.
  const std::vector<graph::NodeId>& node_order() const { return node_order_; }

 private:
  // Adds one edge's weight to the incremental σ/Λ̂ state.
  void AccumulateEdgeIntoState(graph::NodeId u, graph::NodeId v,
                               double weight);
  void RefreshCapacity();
  // Sorts only the nodes added since the last step and merges them into
  // node_order_.
  void ExtendNodeOrder();

  const chain::AccountRegistry* registry_;
  alloc::AllocationParams params_;
  ControllerOptions options_;

  graph::TransactionGraph graph_;
  alloc::Allocation allocation_;
  alloc::CommunityState state_;

  std::vector<graph::NodeId> touched_;      // V̂ accumulator (no dups).
  std::vector<uint8_t> touched_flag_;       // Dedup bitmap.
  // Every node id below its size, in (OrderKey, id) order. A node's key
  // never changes and no node leaves the graph, so the order is a pure
  // function of the node count: checkpoints need not save it.
  std::vector<graph::NodeId> node_order_;
  uint64_t transactions_applied_ = 0;
};

}  // namespace txallo::core
