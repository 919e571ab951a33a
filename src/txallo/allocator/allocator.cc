#include "txallo/allocator/allocator.h"

namespace txallo::allocator {

Result<alloc::EvaluationReport> Allocator::Evaluate(
    const chain::Ledger& ledger, const alloc::Allocation& allocation,
    const alloc::AllocationParams& params) const {
  return alloc::EvaluateAllocation(ledger, allocation, params);
}

Result<alloc::EvaluationReport> Allocator::Evaluate(
    const std::vector<chain::Transaction>& transactions,
    const alloc::Allocation& allocation,
    const alloc::AllocationParams& params) const {
  return alloc::EvaluateAllocation(transactions, allocation, params);
}

Result<alloc::Allocation> OnlineAllocator::Rebalance() {
  std::unique_ptr<RebalanceTask> task = BeginRebalance();
  if (task == nullptr) {
    return Status::FailedPrecondition(
        Name() + ": Rebalance() while a rebalance task is outstanding");
  }
  Result<alloc::Allocation> mapping = task->Run();
  TXALLO_RETURN_NOT_OK(task->Commit());
  return mapping;
}

std::vector<graph::NodeId> ResolveNodeOrder(const AllocationContext& context) {
  if (context.node_order != nullptr) return *context.node_order;
  const size_t num_nodes =
      context.graph != nullptr ? context.graph->num_nodes() : 0;
  if (context.registry != nullptr) {
    std::vector<graph::NodeId> order = context.registry->IdsInHashOrder();
    if (context.registry->size() > num_nodes) {
      // The registry knows accounts the graph has not seen yet (online
      // strategies rebalance mid-stream): keep only valid node ids.
      std::erase_if(order, [num_nodes](graph::NodeId v) {
        return static_cast<size_t>(v) >= num_nodes;
      });
    } else {
      // Accounts beyond the registry (synthetic ids) append in id order.
      for (size_t v = context.registry->size(); v < num_nodes; ++v) {
        order.push_back(static_cast<graph::NodeId>(v));
      }
    }
    return order;
  }
  std::vector<graph::NodeId> order(num_nodes);
  for (size_t v = 0; v < num_nodes; ++v) {
    order[v] = static_cast<graph::NodeId>(v);
  }
  return order;
}

}  // namespace txallo::allocator
