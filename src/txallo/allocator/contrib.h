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
// Registered as "contrib" (options: imbalance >= 1.0, stress-weight >= 0):
// the registry wraps this partition function in a GraphStrategy
// (allocator/adapters.h), which supplies the online path, and the
// conformance suite, allocator_matrix and every --allocator/--methods flag
// pick it up automatically.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/common/status.h"
#include "txallo/graph/graph.h"

namespace txallo::allocator {

struct ContribOptions {
  /// Per-shard contribution capacity slack: capacity = imbalance * total
  /// contribution / k. Must be >= 1.0.
  double imbalance = 1.1;
  /// Weight of the overload penalty once a shard exceeds its capacity
  /// (keeps the fallback ordering stress-aware instead of arbitrary).
  double stress_weight = 1.0;
};

/// The greedy stream over one consolidated graph, as GraphStrategy's
/// partition function: a mapping over the graph's nodes, ties broken by
/// `node_order`.
Result<alloc::Allocation> PartitionByContribution(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order, uint32_t num_shards,
    const ContribOptions& options);

}  // namespace txallo::allocator
