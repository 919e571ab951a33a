// Shared closed-form pieces of the paper's analytic performance model
// (§III-B): the capacity-clamped shard throughput (Eq. 3/7), the average
// confirmation latency integral (Eq. 4), the edge-splitting combination
// count π(Tx), and the workload standard deviation ρ (Eq. 1).
#pragma once

#include <cstdint>
#include <vector>

namespace txallo {

/// π(Tx) = C(|A_Tx|, 2): the number of one-to-one edges a transaction
/// touching `num_accounts` distinct accounts expands to (Definition 2).
/// By convention a single-account transaction (|A_Tx| = 1, a self-transfer)
/// maps to one self-loop edge, so π(1) = 1.
uint64_t EdgeSplitCount(uint64_t num_accounts);

/// Capacity-clamped shard throughput, Eq. (3)/(7):
///   Λ_i = Λ̂_i            if σ_i <= λ
///   Λ_i = (λ / σ_i) Λ̂_i  otherwise.
/// Precondition: capacity λ > 0 whenever workload > capacity.
/// Inline: the TxAllo sweeps evaluate it for every candidate community of
/// every node they visit.
inline double ClampThroughput(double uncapped_throughput, double workload,
                              double capacity) {
  if (workload <= capacity) return uncapped_throughput;
  if (workload <= 0.0) return uncapped_throughput;
  return (capacity / workload) * uncapped_throughput;
}

/// Average confirmation latency of a shard in block units, Eq. (4), as the
/// exact integral  ζ(σ̂) = (∫_0^σ̂ ⌈x⌉ dx) / σ̂  with σ̂ = workload/capacity.
/// Continuous everywhere (the paper's printed closed form has a removable
/// discontinuity at integer σ̂; the integral does not). ζ(σ̂) = 1 for
/// σ̂ <= 1, and an empty shard (σ̂ = 0) is defined to have latency 1 — a
/// transaction can never commit in less than one block.
double AverageLatencyBlocks(double workload, double capacity);

/// Worst-case confirmation latency of a shard in block units: the number of
/// time units needed to drain its workload, T = ⌈σ_i / λ⌉ (at least 1).
double WorstCaseLatencyBlocks(double workload, double capacity);

/// Population standard deviation (Eq. 1), used for the workload balance
/// metric ρ. Returns 0 for empty input.
double PopulationStdDev(const std::vector<double>& values);

/// Mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& values);

}  // namespace txallo
