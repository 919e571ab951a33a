// Account model for an account-based permissionless blockchain (paper
// §II-A). Accounts are persistent and repeatedly used, which is what makes
// historical transaction patterns exploitable for allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "txallo/common/flat_map.h"
#include "txallo/common/status.h"

namespace txallo::chain {

/// Dense account identifier. Dense ids keep the transaction graph and the
/// allocation arrays cache-friendly; the registry maps them back to
/// addresses.
using AccountId = uint32_t;

/// Sentinel for "no account".
inline constexpr AccountId kInvalidAccount = UINT32_MAX;

/// Account kinds, Ethereum terminology (paper §II-A): EOAs are client
/// key-pairs, contract accounts belong to smart contracts and are typically
/// far more active.
enum class AccountType : uint8_t {
  kExternallyOwned = 0,  // EOA
  kContract = 1,         // CA
};

/// Interning registry: address string <-> dense AccountId, plus per-account
/// metadata needed by the allocators (deterministic ordering key, type).
class AccountRegistry {
 public:
  AccountRegistry() = default;

  /// Returns the id for `address`, creating it on first sight. Aborts when
  /// a new id would reach kInvalidAccount (four billion distinct addresses
  /// do not fit in memory first).
  AccountId Intern(const std::string& address,
                   AccountType type = AccountType::kExternallyOwned);

  /// Creates `count` synthetic accounts with consecutive ids and returns the
  /// first one; each address is derived from its id ("acct-<id>") and the
  /// new account `id` gets type `type_of(id)`, called in id order. The
  /// arrays are sized once; synthetic addresses are resolved by parsing
  /// them, so they take no index entries. OutOfRange, creating nothing,
  /// when an id would reach kInvalidAccount. Used by the workload generator
  /// and the scenario overlays.
  Result<AccountId> CreateSynthetic(
      uint64_t count, const std::function<AccountType(uint64_t)>& type_of);
  Result<AccountId> CreateSynthetic(
      uint64_t count, AccountType type = AccountType::kExternallyOwned);

  /// Looks up an existing id. NotFound if the address was never interned.
  Result<AccountId> Find(const std::string& address) const;

  /// Precondition: id < size().
  const std::string& AddressOf(AccountId id) const { return addresses_[id]; }
  AccountType TypeOf(AccountId id) const { return types_[id]; }

  /// Deterministic ordering key: first 8 bytes of SHA256(address). The paper
  /// (§V-B) uses the account-hash order to make the node loop deterministic
  /// across miners.
  uint64_t OrderKey(AccountId id) const { return order_keys_[id]; }

  size_t size() const { return addresses_.size(); }

  /// All account ids sorted by OrderKey (ties broken by id). This is the
  /// canonical node iteration order of G-TxAllo.
  std::vector<AccountId> IdsInHashOrder() const;

 private:
  void Append(std::string address, AccountType type);
  // The index entry for `address`, else the synthetic account it names
  // (checked against the stored address), else kInvalidAccount.
  AccountId Lookup(const std::string& address) const;

  // Flat open-addressing map over the interned (non-synthetic) addresses:
  // interning stays O(1) without libstdc++'s node allocations.
  common::FlatMap<std::string, AccountId> index_;
  std::vector<std::string> addresses_;
  std::vector<AccountType> types_;
  std::vector<uint64_t> order_keys_;
};

}  // namespace txallo::chain
