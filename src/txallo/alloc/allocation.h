// Account-shard mapping (paper Definition 1): a partition {A_1, ..., A_k}
// of the account set with uniqueness and completeness. Internally a flat
// account->shard array; shard kUnassignedShard marks accounts an algorithm
// has not placed yet (only ever observable mid-algorithm).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/common/status.h"

namespace txallo::alloc {

using ShardId = uint32_t;

/// Sentinel for "not yet placed".
inline constexpr ShardId kUnassignedShard = UINT32_MAX;

/// The account-shard mapping φ(A, T, θ) outputs.
class Allocation {
 public:
  Allocation() = default;

  /// Creates a mapping over `num_accounts` accounts and `num_shards` shards,
  /// all accounts unassigned.
  Allocation(size_t num_accounts, uint32_t num_shards)
      : num_shards_(num_shards),
        shard_of_(num_accounts, kUnassignedShard) {}

  uint32_t num_shards() const { return num_shards_; }
  size_t num_accounts() const { return shard_of_.size(); }

  /// Grows the account domain (new accounts arrive unassigned).
  void GrowAccounts(size_t num_accounts) {
    if (num_accounts > shard_of_.size()) {
      shard_of_.resize(num_accounts, kUnassignedShard);
    }
  }

  /// Accounts outside the mapping's domain (created after this allocation
  /// was snapshotted) read as unassigned rather than out-of-bounds.
  ShardId shard_of(chain::AccountId account) const {
    return account < shard_of_.size() ? shard_of_[account] : kUnassignedShard;
  }
  bool IsAssigned(chain::AccountId account) const {
    return shard_of(account) != kUnassignedShard;
  }

  /// The shard a live chain executes `account` on: its assigned shard, or,
  /// with `hash_fallback`, account id mod k for an account the mapping has
  /// not placed (one created since this allocation was snapshotted).
  /// kUnassignedShard when the account is unplaced and the fallback is off.
  ShardId RouteOf(chain::AccountId account, bool hash_fallback) const {
    const ShardId assigned = shard_of(account);
    if (assigned != kUnassignedShard || !hash_fallback || num_shards_ == 0) {
      return assigned;
    }
    return static_cast<ShardId>(account % num_shards_);
  }

  /// Assigns (or reassigns) an account. Preconditions: shard < num_shards()
  /// and account < num_accounts() — unlike the read path, writing to an
  /// out-of-domain account is a bug; call GrowAccounts() first.
  void Assign(chain::AccountId account, ShardId shard) {
    assert(account < shard_of_.size());
    shard_of_[account] = shard;
  }

  /// Raw mapping array (account id -> shard id).
  const std::vector<ShardId>& raw() const { return shard_of_; }

  /// Verifies Definition 1: every account is assigned to exactly one shard
  /// in [0, k). (Uniqueness is structural — one slot per account — so this
  /// checks completeness and range.)
  Status Validate() const;

  /// Materializes the shard groups {A_1, ..., A_k}.
  std::vector<std::vector<chain::AccountId>> Groups() const;

  /// Number of accounts per shard.
  std::vector<uint64_t> ShardSizes() const;

  bool operator==(const Allocation& other) const {
    return num_shards_ == other.num_shards_ && shard_of_ == other.shard_of_;
  }

 private:
  uint32_t num_shards_ = 0;
  std::vector<ShardId> shard_of_;
};

}  // namespace txallo::alloc
