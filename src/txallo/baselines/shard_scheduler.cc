#include "txallo/baselines/shard_scheduler.h"

#include <algorithm>

#include "txallo/common/stopwatch.h"

namespace txallo::baselines {

using alloc::kUnassignedShard;
using alloc::ShardId;
using chain::AccountId;

ShardScheduler::ShardScheduler(uint32_t num_shards, double eta,
                               ShardSchedulerOptions options)
    : num_shards_(num_shards),
      eta_(eta),
      options_(options),
      load_(num_shards, 0.0) {}

ShardId ShardScheduler::LeastLoadedShard() const {
  ShardId best = 0;
  for (ShardId s = 1; s < num_shards_; ++s) {
    if (load_[s] < load_[best]) best = s;
  }
  return best;
}

ShardId ShardScheduler::PlaceNewAccount(
    const std::vector<ShardId>& involved) {
  const double avg = total_load_ / static_cast<double>(num_shards_);
  const double cap = options_.buffer_ratio * avg;
  // Prefer a shard already involved in this transaction (keeps the
  // transaction intra) when the buffer allows it.
  ShardId best = kUnassignedShard;
  for (ShardId s : involved) {
    if (load_[s] <= cap && (best == kUnassignedShard ||
                            load_[s] < load_[best] ||
                            (load_[s] == load_[best] && s < best))) {
      best = s;
    }
  }
  if (best != kUnassignedShard) return best;
  return LeastLoadedShard();
}

void ShardScheduler::RecordAffinity(AccountId account, ShardId shard,
                                    double weight) {
  std::vector<ShardAffinity>& entries = affinity_[account];
  for (ShardAffinity& e : entries) {
    if (e.shard == shard) {
      e.weight += weight;
      return;
    }
  }
  if (entries.size() <
      static_cast<size_t>(options_.max_tracked_shards)) {
    entries.push_back({shard, weight});
    return;
  }
  // Evict the weakest tracked shard if the newcomer beats it.
  size_t weakest = 0;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].weight < entries[weakest].weight) weakest = i;
  }
  if (entries[weakest].weight < weight) {
    entries[weakest] = {shard, weight};
  }
}

double ShardScheduler::AffinityTo(AccountId account, ShardId shard) const {
  for (const ShardAffinity& e : affinity_[account]) {
    if (e.shard == shard) return e.weight;
  }
  return 0.0;
}

ShardScheduler::MigrationPlan ShardScheduler::BestMigration(
    AccountId account) const {
  MigrationPlan plan;
  const ShardId current = shard_of_[account];
  const double own = AffinityTo(account, current);
  const double threshold = own * options_.migration_benefit;
  const double avg = total_load_ / static_cast<double>(num_shards_);
  const double cap = options_.buffer_ratio * avg;
  for (const ShardAffinity& e : affinity_[account]) {
    if (e.shard == current) continue;
    if (e.weight <= threshold) continue;
    if (load_[e.shard] > cap) continue;
    const double benefit = e.weight - threshold;
    if (benefit > plan.benefit ||
        (benefit == plan.benefit && plan.target != kUnassignedShard &&
         e.shard < plan.target)) {
      plan.target = e.shard;
      plan.benefit = benefit;
    }
  }
  return plan;
}

void ShardScheduler::Process(const chain::Transaction& tx) {
  ++transactions_;
  const std::span<const AccountId> accounts = tx.accounts();
  if (accounts.empty()) return;
  const AccountId max_id = accounts.back();
  if (static_cast<size_t>(max_id) >= shard_of_.size()) {
    shard_of_.resize(static_cast<size_t>(max_id) + 1, kUnassignedShard);
    affinity_.resize(static_cast<size_t>(max_id) + 1);
  }

  // Shards already involved via previously placed accounts.
  std::vector<ShardId> involved;
  for (AccountId a : accounts) {
    const ShardId s = shard_of_[a];
    if (s != kUnassignedShard &&
        std::find(involved.begin(), involved.end(), s) == involved.end()) {
      involved.push_back(s);
    }
  }

  // Place unseen accounts.
  for (AccountId a : accounts) {
    if (shard_of_[a] != kUnassignedShard) continue;
    const ShardId s = PlaceNewAccount(involved);
    shard_of_[a] = s;
    ++placements_;
    if (std::find(involved.begin(), involved.end(), s) == involved.end()) {
      involved.push_back(s);
    }
  }

  // Update interaction history: every account accrues affinity to its
  // counterparties' shards. (Not to "all involved shards": an account is
  // itself involved in every one of its transactions, and crediting its own
  // shard at the same rate would make the migration criterion unreachable.)
  for (AccountId a : accounts) {
    for (AccountId b : accounts) {
      if (b != a) RecordAffinity(a, shard_of_[b], 1.0);
    }
  }

  // Cross-shard transactions trigger a migration check. At most ONE account
  // migrates per transaction — the one with the largest benefit (ties to
  // the smaller id). Migrating several at once lets interacting accounts
  // swap shards in tandem and oscillate forever without ever co-locating.
  if (involved.size() > 1) {
    AccountId mover = chain::kInvalidAccount;
    MigrationPlan best;
    for (AccountId a : accounts) {
      MigrationPlan plan = BestMigration(a);
      if (plan.target == kUnassignedShard) continue;
      if (mover == chain::kInvalidAccount || plan.benefit > best.benefit ||
          (plan.benefit == best.benefit && a < mover)) {
        mover = a;
        best = plan;
      }
    }
    if (mover != chain::kInvalidAccount) {
      shard_of_[mover] = best.target;
      ++migrations_;
      involved.clear();
      for (AccountId a : accounts) {
        const ShardId s = shard_of_[a];
        if (std::find(involved.begin(), involved.end(), s) ==
            involved.end()) {
          involved.push_back(s);
        }
      }
    }
  }

  // Account the load: 1 intra unit, or η per involved shard when cross.
  if (involved.size() == 1) {
    load_[involved[0]] += 1.0;
    total_load_ += 1.0;
  } else {
    for (ShardId s : involved) {
      load_[s] += eta_;
      total_load_ += eta_;
    }
  }
}

void ShardScheduler::ProcessLedger(const chain::Ledger& ledger,
                                   ShardSchedulerInfo* info) {
  Stopwatch watch;
  ledger.ForEachTransaction(
      [this](const chain::Transaction& tx) { Process(tx); });
  if (info != nullptr) {
    info->total_seconds = watch.ElapsedSeconds();
    info->transactions_processed = transactions_;
    info->migrations = migrations_;
    info->placements = placements_;
  }
}

alloc::Allocation ShardScheduler::SnapshotAllocation(
    size_t num_accounts) const {
  alloc::Allocation allocation(
      std::max(num_accounts, shard_of_.size()), num_shards_);
  std::vector<double> load = load_;
  for (size_t a = 0; a < allocation.num_accounts(); ++a) {
    ShardId s =
        a < shard_of_.size() ? shard_of_[a] : kUnassignedShard;
    if (s == kUnassignedShard) {
      // Never-transacting account: park it in the least-loaded shard.
      s = 0;
      for (ShardId p = 1; p < num_shards_; ++p) {
        if (load[p] < load[s]) s = p;
      }
    }
    allocation.Assign(static_cast<AccountId>(a), s);
  }
  return allocation;
}

}  // namespace txallo::baselines
