#include "txallo/state/state_db.h"

#include <bit>
#include <cassert>
#include <utility>

namespace txallo::state {

StateDb::StateDb(uint32_t num_shards, const StateConfig& config)
    : config_(config) {
  assert(num_shards > 0);
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardStateDb>(config.initial_balance));
  }
}

uint32_t StateDb::ResidencyOf(chain::AccountId account) const {
  return account < residency_.size() ? residency_[account] : kNoShard;
}

const AccountState* StateDb::Find(chain::AccountId account) const {
  const uint32_t shard = ResidencyOf(account);
  return shard == kNoShard ? nullptr : shards_[shard]->Find(account);
}

void StateDb::TrackResidency(chain::AccountId account, uint32_t shard) {
  if (account >= residency_.size()) {
    residency_.resize(static_cast<size_t>(account) + 1, kNoShard);
  }
  residency_[account] = shard;
}

void StateDb::Fund(chain::AccountId account, AccountState record,
                   uint32_t shard) {
  assert(shard < shards_.size());
  const uint32_t current = ResidencyOf(account);
  if (current != kNoShard && current != shard) {
    std::optional<AccountState> moved = shards_[current]->Extract(account);
    assert(moved.has_value());
    (void)moved;
  }
  shards_[shard]->Put(account, record);
  TrackResidency(account, shard);
}

bool StateDb::StagePart(uint64_t seq, const std::vector<Op>& ops,
                        uint32_t placement_shard) {
  assert(placement_shard < shards_.size());
  // The shards this part stages on, even when a later op fails: the abort
  // must find the earlier ones.
  uint64_t staged = 0;
  bool ok = true;
  for (const Op& op : ops) {
    uint32_t shard = ResidencyOf(op.account);
    if (shard == kNoShard) {
      shard = placement_shard;
      // StageOp lazily creates the record on this shard; the residency map
      // must agree before the fact.
      TrackResidency(op.account, shard);
    }
    if (!shards_[shard]->StageOp(seq, op)) {
      ok = false;
      break;
    }
    if (shard < kMaskedShards) staged |= uint64_t{1} << shard;
  }
  if (staged != 0) staged_shards_[seq] |= staged;
  return ok;
}

size_t StateDb::Decide(uint64_t seq,
                       size_t (ShardStateDb::*decide)(uint64_t)) {
  uint64_t mask = 0;
  if (auto it = staged_shards_.find(seq); it != staged_shards_.end()) {
    mask = it->second;
    staged_shards_.erase(it);
  }
  size_t ops = 0;
  for (; mask != 0; mask &= mask - 1) {
    ops += (shards_[std::countr_zero(mask)].get()->*decide)(seq);
  }
  for (size_t s = kMaskedShards; s < shards_.size(); ++s) {
    ops += (shards_[s].get()->*decide)(seq);
  }
  return ops;
}

size_t StateDb::Commit(uint64_t seq) {
  return Decide(seq, &ShardStateDb::CommitStaged);
}

size_t StateDb::Abort(uint64_t seq) {
  return Decide(seq, &ShardStateDb::AbortStaged);
}

uint32_t StateDb::EffectiveShard(chain::AccountId account) const {
  const alloc::ShardId routed =
      target_->RouteOf(account, target_hash_fallback_);
  // Left unplaced by the rule (no fallback): stay put.
  return routed != alloc::kUnassignedShard ? routed : ResidencyOf(account);
}

MigrationReport StateDb::MoveRecords(
    const std::vector<chain::AccountId>& candidates) {
  MigrationReport report;
  report.moved_out.assign(shards_.size(), 0);
  report.moved_in.assign(shards_.size(), 0);
  std::vector<chain::AccountId> still_deferred;
  for (chain::AccountId account : candidates) {
    const uint32_t from = ResidencyOf(account);
    if (from == kNoShard) continue;
    const uint32_t to = EffectiveShard(account);
    if (to == from) continue;
    std::optional<AccountState> record = shards_[from]->Extract(account);
    if (!record.has_value()) {
      // Reservation-locked mid-2PC; retried by ContinueMigration().
      still_deferred.push_back(account);
      ++report.accounts_deferred;
      continue;
    }
    shards_[to]->Put(account, *record);
    TrackResidency(account, to);
    ++report.accounts_moved;
    ++report.moved_out[from];
    ++report.moved_in[to];
  }
  deferred_moves_ = std::move(still_deferred);
  return report;
}

MigrationReport StateDb::BeginMigration(
    std::shared_ptr<const alloc::Allocation> allocation,
    bool hash_route_unassigned) {
  assert(allocation != nullptr);
  assert(allocation->num_shards() == num_shards());
  target_ = std::move(allocation);
  target_hash_fallback_ = hash_route_unassigned;
  std::vector<chain::AccountId> candidates;
  candidates.reserve(residency_.size());
  for (size_t a = 0; a < residency_.size(); ++a) {
    if (residency_[a] != kNoShard) {
      candidates.push_back(static_cast<chain::AccountId>(a));
    }
  }
  return MoveRecords(candidates);
}

MigrationReport StateDb::ContinueMigration() {
  if (deferred_moves_.empty()) {
    MigrationReport report;
    report.moved_out.assign(shards_.size(), 0);
    report.moved_in.assign(shards_.size(), 0);
    return report;
  }
  return MoveRecords(std::vector<chain::AccountId>(deferred_moves_.begin(),
                                                   deferred_moves_.end()));
}

Sha256Digest StateDb::GlobalRoot() {
  Sha256 hasher;
  for (const std::unique_ptr<ShardStateDb>& shard : shards_) {
    const Sha256Digest& root = shard->RootHash();
    hasher.Update(root.data(), root.size());
  }
  return hasher.Finish();
}

uint64_t StateDb::total_accounts() const {
  uint64_t total = 0;
  for (const std::unique_ptr<ShardStateDb>& shard : shards_) {
    total += shard->num_accounts();
  }
  return total;
}

}  // namespace txallo::state
