// Hyper-parameters of the allocation problem (paper §V-A): shard count k,
// cross-shard workload factor η, per-shard processing capacity λ, and the
// convergence threshold ε.
#pragma once

#include <cstdint>

#include "txallo/common/status.h"

namespace txallo::alloc {

/// θ in φ(A, T, θ).
struct AllocationParams {
  /// Number of shards k (>= 1).
  uint32_t num_shards = 16;

  /// Workload for a shard to process one cross-shard transaction, relative
  /// to 1 for an intra-shard transaction. η > 1 in practice (paper: 2..10).
  double eta = 2.0;

  /// Processing capacity λ of each shard, in intra-shard-transaction units
  /// per scheduling window. The paper's experiments use λ = |T| / k so that
  /// the all-intra balanced ideal yields system throughput exactly |T|.
  double capacity = 0.0;

  /// Convergence threshold ε for the optimization loop. The paper uses
  /// ε = 1e-5 · |T|.
  double epsilon = 0.0;

  /// Fills capacity and epsilon from a transaction count using the paper's
  /// experimental setting (λ = |T|/k, ε = 1e-5·|T|).
  static AllocationParams ForExperiment(uint64_t num_transactions,
                                        uint32_t num_shards, double eta);

  /// Sanity-checks the parameter combination. NaN and ±inf fail every
  /// check.
  Status Validate() const;

  /// The η part of Validate(): InvalidArgument naming 'eta' unless η is
  /// finite and >= 1. The allocator registry checks η alone, before λ is
  /// sized.
  static Status ValidateEta(double eta);
};

}  // namespace txallo::alloc
