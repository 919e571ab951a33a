// Blockchain-level evaluation metrics (paper §III-B), computed from the
// actual transaction set and an account-shard mapping. This is the honest
// "what would the sharded chain experience" layer the benches report:
//   γ  cross-shard transaction ratio        |T_C| / |T|
//   σ_i per-shard workload                  |T_I_i| + η·|T_C_i|
//   ρ  workload balance                     population stddev of σ_i
//   Λ  capacity-clamped system throughput   Eq. (2)/(3)
//   ζ  average confirmation latency         Eq. (4)
// plus the worst-case latency ⌈σ_max/λ⌉ used in Fig. 7.
//
// One evaluator serves three cost shapes. Per shard it counts intra parts,
// cross parts, cross parts holding an input account, and accounts beyond
// the first two; σ_i is priced from those counts once, by a WorkloadModel:
//   - the paper's single η (WorkloadModel::Uniform, the default);
//   - §III-A's extension, where input and output shards may cost different
//     amounts and large transactions pay per extra account;
//   - the broker overlay (baselines/broker.h), whose replicated accounts
//     pin no shard and whose split transactions are priced below η.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/params.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"

namespace txallo::alloc {

/// Per-role workload parameters: the σ_i price of each kind of part.
struct WorkloadModel {
  /// Workload of an intra-shard transaction for its (single) shard.
  double intra = 1.0;
  /// Workload for a shard holding at least one input account of a
  /// cross-shard transaction (it must validate and debit — the expensive
  /// side of the two-phase protocol).
  double cross_input = 2.0;
  /// Workload for a shard holding only output accounts (credit-only).
  double cross_output = 2.0;
  /// Extra workload per distinct account beyond the first two (state
  /// touches scale with |A_Tx|).
  double per_extra_account = 0.0;

  /// The paper's single-η model: intra 1, both cross roles η.
  static WorkloadModel Uniform(double eta) {
    return WorkloadModel{1.0, eta, eta, 0.0};
  }

  /// Rejects non-positive intra work, cross work cheaper than intra work
  /// and a negative surcharge.
  Status Validate() const;
};

/// Full evaluation of one allocation against one transaction set.
struct EvaluationReport {
  uint64_t total_transactions = 0;
  uint64_t cross_shard_transactions = 0;
  uint32_t num_shards = 0;

  /// γ = |T_C| / |T|.
  double cross_shard_ratio = 0.0;
  /// Mean of µ(Tx) (shards touched per transaction).
  double mean_shards_per_tx = 0.0;

  /// σ_i per shard.
  std::vector<double> shard_workloads;
  /// σ_i / λ per shard (Fig. 4's y-axis).
  std::vector<double> normalized_workloads;
  /// ρ (population stddev of σ_i).
  double workload_stddev = 0.0;
  /// ρ normalized by λ — scale-free balance number used when comparing
  /// datasets of different sizes.
  double normalized_workload_stddev = 0.0;

  /// Λ (Eq. 2, capacity-clamped per shard by Eq. 3).
  double throughput = 0.0;
  /// Λ / λ — "how many times an unsharded chain" (Fig. 5's y-axis).
  double normalized_throughput = 0.0;

  /// Mean over shards of ζ_i (Eq. 4), in block units (Fig. 6).
  double avg_latency_blocks = 0.0;
  /// max_i ⌈σ_i / λ⌉, in block units (Fig. 7).
  double worst_latency_blocks = 0.0;
};

/// Evaluates `allocation` over every transaction of `ledger` under the
/// paper's single-η model. Fails if any involved account is unassigned or
/// parameters are invalid.
Result<EvaluationReport> EvaluateAllocation(const chain::Ledger& ledger,
                                            const Allocation& allocation,
                                            const AllocationParams& params);

/// Same, over an explicit transaction list.
Result<EvaluationReport> EvaluateAllocation(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params);

/// Evaluates under `model` instead of params.eta (params supplies k and λ).
/// Throughput credit per shard stays 1/µ(Tx): completion shares are
/// role-independent, only σ_i changes.
Result<EvaluationReport> EvaluateAllocation(const chain::Ledger& ledger,
                                            const Allocation& allocation,
                                            const AllocationParams& params,
                                            const WorkloadModel& model);

/// Same, over an explicit transaction list.
Result<EvaluationReport> EvaluateAllocation(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params,
    const WorkloadModel& model);

/// The shared evaluator behind every overload above, for overlays that
/// replicate accounts. `replicated` (sorted ascending) lists accounts every
/// shard holds: they pin no shard, and a transaction of only replicated
/// accounts lands intra on shard 0. Validates neither `params` nor `model`;
/// the caller does.
Result<EvaluationReport> EvaluateWithReplicas(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params,
    const WorkloadModel& model,
    const std::vector<chain::AccountId>& replicated);

/// µ(Tx): number of distinct shards maintaining the transaction's accounts.
/// Unassigned accounts make the result 0 (invalid).
uint32_t ShardsTouched(const chain::Transaction& tx,
                       const Allocation& allocation);

}  // namespace txallo::alloc
