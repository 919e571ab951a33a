// BrokerChain-style broker overlay (Huang et al., INFOCOM'22 — paper
// §II-C): a small set of highly active "broker" accounts is replicated in
// every shard. A transaction whose counterparties include a broker never
// needs cross-shard consensus — the broker's local replica participates in
// whichever shard the other accounts live in. A cross-shard transaction
// between two non-broker accounts is SPLIT by a broker into per-shard
// sub-transactions: each involved shard processes an intra-priced part
// (broker_cross_cost ≈ 1, not η) at the price of an extra routing hop.
//
// BrokerChain's backbone allocation is still METIS; this overlay lets the
// bench harness evaluate "METIS + brokers" against plain TxAllo — the
// fair version of the comparison the paper's related work implies.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/graph/graph.h"

namespace txallo::baselines {

struct BrokerOptions {
  /// How many of the most active accounts become brokers.
  uint32_t num_brokers = 16;
  /// Per-shard workload of one brokered cross-shard sub-transaction
  /// (intra-priced plus broker bookkeeping).
  double broker_cross_cost = 1.2;
  /// Extra confirmation rounds a brokered transaction pays (the broker
  /// relays between the two halves).
  double broker_latency_blocks = 1.0;
};

/// Picks the `num_brokers` most active accounts (by incident weight) of a
/// consolidated transaction graph — BrokerChain recruits brokers from the
/// busiest accounts. Deterministic: ties break toward the smaller id.
std::vector<chain::AccountId> SelectBrokersByActivity(
    const graph::TransactionGraph& graph, uint32_t num_brokers);

/// Evaluates `allocation` with the broker overlay active.
///
/// Semantics per transaction (µ' = distinct shards of NON-broker
/// accounts):
///   µ' <= 1          -> intra: workload 1 in that shard (brokers ride
///                       along for free — they are replicated locally);
///                       all-broker transactions cost 1 in shard 0's
///                       replica set.
///   µ' >  1          -> brokered: each involved shard processes a
///                       sub-transaction of workload broker_cross_cost;
///                       throughput credit stays 1/µ' per shard; latency
///                       gains broker_latency_blocks.
/// The reported cross_shard_ratio counts transactions with µ' > 1 — the
/// ones that would have required cross-shard consensus without brokers.
/// Runs the shared §III-B evaluator (alloc::EvaluateWithReplicas) with the
/// brokers as replicated accounts; only the relay-hop latency is added here.
/// `brokers` must be sorted ascending, as SelectBrokersByActivity returns.
Result<alloc::EvaluationReport> EvaluateWithBrokers(
    const std::vector<chain::Transaction>& transactions,
    const alloc::Allocation& allocation, const alloc::AllocationParams& params,
    const std::vector<chain::AccountId>& brokers,
    const BrokerOptions& options = {});

/// Ledger convenience overload.
Result<alloc::EvaluationReport> EvaluateWithBrokers(
    const chain::Ledger& ledger, const alloc::Allocation& allocation,
    const alloc::AllocationParams& params,
    const std::vector<chain::AccountId>& brokers,
    const BrokerOptions& options = {});

}  // namespace txallo::baselines
