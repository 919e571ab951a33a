// ContribChain-style contribution/stress-weighted allocator (PAPERS.md:
// Huang et al., "ContribChain"). Accounts earn a *contribution* score from
// their observed activity (weighted degree + self-loops in the accumulated
// transaction graph); shards carry *stress* (the contribution already
// packed into them). Placement is a deterministic greedy stream over
// accounts in descending contribution order: each account lands on the
// shard maximizing its affinity to already-placed neighbors, discounted by
// that shard's stress (an LDG-style multiplicative penalty with a hard
// capacity derived from `imbalance`). High-contribution accounts are placed
// first, so the heavy hitters anchor shards and the long tail folds around
// them — the ContribChain intuition that node contribution, not just edge
// cut, should steer allocation.
//
// Registered as "contrib" (options: imbalance >= 1.0, stress-weight >= 0);
// the conformance suite, allocator_matrix and every --allocator/--methods
// flag pick it up automatically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/graph/builder.h"

namespace txallo::allocator {

struct ContribOptions {
  /// Per-shard contribution capacity slack: capacity = imbalance * total
  /// contribution / k. Must be >= 1.0.
  double imbalance = 1.1;
  /// Weight of the overload penalty once a shard exceeds its capacity
  /// (keeps the fallback ordering stress-aware instead of arbitrary).
  double stress_weight = 1.0;
};

class ContribStrategy : public OnlineAllocator {
 public:
  ContribStrategy(std::string name, const chain::AccountRegistry* registry,
                  alloc::AllocationParams params, ContribOptions options);

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

 private:
  /// Pure (static) partition of one consolidated graph — the same routine
  /// backs the one-shot and online paths, so they cannot diverge.
  static Result<alloc::Allocation> Partition(
      const graph::TransactionGraph& graph,
      const std::vector<graph::NodeId>& node_order, uint32_t num_shards,
      const ContribOptions& options);

  const chain::AccountRegistry* registry_;
  ContribOptions options_;
  graph::TransactionGraph graph_;
  graph::GraphBuilder builder_{&graph_};
  alloc::Allocation last_;
};

}  // namespace txallo::allocator
