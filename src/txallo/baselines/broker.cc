#include "txallo/baselines/broker.h"

#include <algorithm>
#include <numeric>

namespace txallo::baselines {

using chain::AccountId;

std::vector<AccountId> SelectBrokersByActivity(
    const graph::TransactionGraph& graph, uint32_t num_brokers) {
  const size_t n = graph.num_nodes();
  std::vector<AccountId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const size_t take = std::min<size_t>(num_brokers, n);
  std::partial_sort(
      ids.begin(), ids.begin() + take, ids.end(),
      [&graph](AccountId a, AccountId b) {
        const double wa = graph.Strength(a) + graph.SelfLoop(a);
        const double wb = graph.Strength(b) + graph.SelfLoop(b);
        if (wa != wb) return wa > wb;
        return a < b;
      });
  ids.resize(take);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<alloc::EvaluationReport> EvaluateWithBrokers(
    const std::vector<chain::Transaction>& transactions,
    const alloc::Allocation& allocation,
    const alloc::AllocationParams& params,
    const std::vector<AccountId>& brokers, const BrokerOptions& options) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  if (options.broker_cross_cost < 0.0) {
    return Status::InvalidArgument("broker_cross_cost must be >= 0");
  }

  // Brokers are replicated accounts; a brokered part is priced
  // broker_cross_cost whichever role its shard plays.
  const alloc::WorkloadModel model{1.0, options.broker_cross_cost,
                                   options.broker_cross_cost, 0.0};
  Result<alloc::EvaluationReport> report = alloc::EvaluateWithReplicas(
      transactions, allocation, params, model, brokers);
  if (!report.ok()) return report;
  // Queueing latency plus the brokered transactions' extra relay hop,
  // amortized over all transactions.
  if (report->total_transactions > 0) {
    report->avg_latency_blocks +=
        options.broker_latency_blocks *
        static_cast<double>(report->cross_shard_transactions) /
        static_cast<double>(report->total_transactions);
  }
  report->worst_latency_blocks += options.broker_latency_blocks;
  return report;
}

Result<alloc::EvaluationReport> EvaluateWithBrokers(
    const chain::Ledger& ledger, const alloc::Allocation& allocation,
    const alloc::AllocationParams& params,
    const std::vector<AccountId>& brokers, const BrokerOptions& options) {
  return EvaluateWithBrokers(ledger.AllTransactions(), allocation, params,
                             brokers, options);
}

}  // namespace txallo::baselines
