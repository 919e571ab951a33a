#include "txallo/alloc/metrics.h"

#include <algorithm>

#include "txallo/common/math.h"

namespace txallo::alloc {

uint32_t ShardsTouched(const chain::Transaction& tx,
                       const Allocation& allocation) {
  // Transactions touch at most a handful of shards; a small stack-local
  // array beats any set container here. Beyond its capacity (transactions
  // spanning >16 shards — vanishingly rare), additional shards are assumed
  // distinct, which can only overcount µ for such outliers.
  constexpr size_t kCapacity = 16;
  ShardId seen[kCapacity];
  size_t n = 0;
  for (chain::AccountId a : tx.accounts()) {
    ShardId s = allocation.shard_of(a);
    if (s == kUnassignedShard) return 0;
    bool dup = false;
    const size_t scan = n < kCapacity ? n : kCapacity;
    for (size_t i = 0; i < scan; ++i) {
      if (seen[i] == s) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      if (n < kCapacity) {
        seen[n] = s;
      }
      ++n;
    }
  }
  return static_cast<uint32_t>(n);
}

Status WorkloadModel::Validate() const {
  if (intra <= 0.0) {
    return Status::InvalidArgument("intra workload must be positive");
  }
  if (cross_input < intra || cross_output < intra) {
    return Status::InvalidArgument(
        "cross-shard work cannot be cheaper than intra-shard work");
  }
  if (per_extra_account < 0.0) {
    return Status::InvalidArgument("per_extra_account must be >= 0");
  }
  return Status::OK();
}

namespace {

// The one §III-B accumulator. Per shard it counts the parts of each kind
// and sums the throughput credit in transaction order; σ_i is priced from
// the counts once, in Finish().
class Accumulator {
 public:
  Accumulator(const Allocation& allocation, uint32_t num_shards,
              const std::vector<chain::AccountId>& replicated)
      : allocation_(allocation),
        replicated_(replicated),
        intra_(num_shards, 0),
        cross_(num_shards, 0),
        cross_input_(num_shards, 0),
        extra_(num_shards, 0),
        uncapped_(num_shards, 0.0) {}

  /// Returns false on the first unassigned account (records the offender).
  bool Add(const chain::Transaction& tx) {
    ++total_;
    shards_.clear();
    // Input shards first: shards_[0, num_input_shards) hold an input.
    if (!Collect(tx.inputs())) return false;
    const size_t num_input_shards = shards_.size();
    if (!Collect(tx.outputs())) return false;
    if (shards_.empty()) shards_.push_back(0);  // Only replicated accounts.
    const size_t accounts = tx.NumDistinctAccounts();
    const uint64_t extra = accounts > 2 ? accounts - 2 : 0;
    const uint32_t mu = static_cast<uint32_t>(shards_.size());
    mu_sum_ += mu;
    if (mu == 1) {
      ++intra_[shards_[0]];
      extra_[shards_[0]] += extra;
      uncapped_[shards_[0]] += 1.0;
      return true;
    }
    ++cross_count_;
    const double share = 1.0 / static_cast<double>(mu);
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardId s = shards_[i];
      ++cross_[s];
      if (i < num_input_shards) ++cross_input_[s];
      extra_[s] += extra;
      uncapped_[s] += share;
    }
    return true;
  }

  // σ_s = intra·n_intra + cross_output·n_cross
  //       + (cross_input − cross_output)·n_cross_in + per_extra·n_extra.
  // Under Uniform(η) the ×1.0 and +0.0 terms are exact, so this is
  // n_intra + η·n_cross to the bit.
  EvaluationReport Finish(const AllocationParams& params,
                          const WorkloadModel& model) const {
    EvaluationReport report;
    report.total_transactions = total_;
    report.cross_shard_transactions = cross_count_;
    report.num_shards = params.num_shards;
    if (total_ > 0) {
      report.cross_shard_ratio =
          static_cast<double>(cross_count_) / static_cast<double>(total_);
      report.mean_shards_per_tx = mu_sum_ / static_cast<double>(total_);
    }
    const double lambda = params.capacity;
    report.shard_workloads.resize(params.num_shards);
    report.normalized_workloads.resize(params.num_shards);
    double worst = 1.0;
    double latency_sum = 0.0;
    double throughput = 0.0;
    for (uint32_t s = 0; s < params.num_shards; ++s) {
      const double sigma =
          model.intra * static_cast<double>(intra_[s]) +
          model.cross_output * static_cast<double>(cross_[s]) +
          (model.cross_input - model.cross_output) *
              static_cast<double>(cross_input_[s]) +
          model.per_extra_account * static_cast<double>(extra_[s]);
      report.shard_workloads[s] = sigma;
      report.normalized_workloads[s] = lambda > 0.0 ? sigma / lambda : 0.0;
      throughput += ClampThroughput(uncapped_[s], sigma, lambda);
      latency_sum += AverageLatencyBlocks(sigma, lambda);
      worst = std::max(worst, WorstCaseLatencyBlocks(sigma, lambda));
    }
    report.workload_stddev = PopulationStdDev(report.shard_workloads);
    report.normalized_workload_stddev =
        lambda > 0.0 ? report.workload_stddev / lambda : 0.0;
    report.throughput = throughput;
    report.normalized_throughput = lambda > 0.0 ? throughput / lambda : 0.0;
    report.avg_latency_blocks =
        latency_sum / static_cast<double>(params.num_shards);
    report.worst_latency_blocks = worst;
    return report;
  }

  chain::AccountId bad_account() const { return bad_account_; }

 private:
  // Adds the distinct shards of the non-replicated `accounts` to shards_.
  bool Collect(std::span<const chain::AccountId> accounts) {
    for (chain::AccountId a : accounts) {
      if (!replicated_.empty() &&
          std::binary_search(replicated_.begin(), replicated_.end(), a)) {
        continue;  // Held by every shard: pins none.
      }
      const ShardId s = allocation_.shard_of(a);
      if (s == kUnassignedShard) {
        bad_account_ = a;
        return false;
      }
      if (std::find(shards_.begin(), shards_.end(), s) == shards_.end()) {
        shards_.push_back(s);
      }
    }
    return true;
  }

  const Allocation& allocation_;
  const std::vector<chain::AccountId>& replicated_;
  std::vector<uint64_t> intra_;
  std::vector<uint64_t> cross_;
  std::vector<uint64_t> cross_input_;
  std::vector<uint64_t> extra_;
  std::vector<double> uncapped_;
  std::vector<ShardId> shards_;
  uint64_t total_ = 0;
  uint64_t cross_count_ = 0;
  double mu_sum_ = 0.0;
  chain::AccountId bad_account_ = chain::kInvalidAccount;
};

// Runs the accumulator over `for_each`'s transactions.
template <typename ForEach>
Result<EvaluationReport> Evaluate(
    const ForEach& for_each, const Allocation& allocation,
    const AllocationParams& params, const WorkloadModel& model,
    const std::vector<chain::AccountId>& replicated) {
  Accumulator acc(allocation, params.num_shards, replicated);
  bool ok = true;
  for_each([&](const chain::Transaction& tx) {
    if (ok) ok = acc.Add(tx);
  });
  if (!ok) {
    return Status::FailedPrecondition(
        "transaction references unassigned account " +
        std::to_string(acc.bad_account()));
  }
  return acc.Finish(params, model);
}

auto Over(const chain::Ledger& ledger) {
  return [&ledger](const auto& fn) { ledger.ForEachTransaction(fn); };
}

auto Over(const std::vector<chain::Transaction>& transactions) {
  return [&transactions](const auto& fn) {
    for (const chain::Transaction& tx : transactions) fn(tx);
  };
}

}  // namespace

Result<EvaluationReport> EvaluateAllocation(const chain::Ledger& ledger,
                                            const Allocation& allocation,
                                            const AllocationParams& params) {
  return EvaluateAllocation(ledger, allocation, params,
                            WorkloadModel::Uniform(params.eta));
}

Result<EvaluationReport> EvaluateAllocation(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params) {
  return EvaluateAllocation(transactions, allocation, params,
                            WorkloadModel::Uniform(params.eta));
}

Result<EvaluationReport> EvaluateAllocation(const chain::Ledger& ledger,
                                            const Allocation& allocation,
                                            const AllocationParams& params,
                                            const WorkloadModel& model) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  TXALLO_RETURN_NOT_OK(model.Validate());
  return Evaluate(Over(ledger), allocation, params, model, {});
}

Result<EvaluationReport> EvaluateAllocation(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params,
    const WorkloadModel& model) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  TXALLO_RETURN_NOT_OK(model.Validate());
  return Evaluate(Over(transactions), allocation, params, model, {});
}

Result<EvaluationReport> EvaluateWithReplicas(
    const std::vector<chain::Transaction>& transactions,
    const Allocation& allocation, const AllocationParams& params,
    const WorkloadModel& model,
    const std::vector<chain::AccountId>& replicated) {
  return Evaluate(Over(transactions), allocation, params, model, replicated);
}

}  // namespace txallo::alloc
