#include "txallo/chain/account.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "txallo/common/sha256.h"

namespace txallo::chain {

namespace {

constexpr std::string_view kSyntheticPrefix = "acct-";

}  // namespace

AccountId AccountRegistry::Intern(const std::string& address,
                                  AccountType type) {
  const AccountId found = Lookup(address);
  if (found != kInvalidAccount) return found;
  if (addresses_.size() >= kInvalidAccount) {
    std::fprintf(stderr, "AccountRegistry::Intern: registry is full\n");
    std::abort();
  }
  const auto id = static_cast<AccountId>(addresses_.size());
  index_.emplace(address, id);
  Append(address, type);
  return id;
}

Result<AccountId> AccountRegistry::CreateSynthetic(
    uint64_t count, const std::function<AccountType(uint64_t)>& type_of) {
  const uint64_t first = addresses_.size();
  if (count > kInvalidAccount - first) {
    return Status::OutOfRange(
        "account registry of " + std::to_string(first) +
        " accounts cannot create " + std::to_string(count) +
        " more: account ids must stay below " +
        std::to_string(kInvalidAccount));
  }
  const size_t total = static_cast<size_t>(first + count);
  addresses_.reserve(total);
  types_.reserve(total);
  order_keys_.reserve(total);
  for (uint64_t id = first; id < total; ++id) {
    Append(std::string(kSyntheticPrefix) + std::to_string(id), type_of(id));
  }
  return static_cast<AccountId>(first);
}

Result<AccountId> AccountRegistry::CreateSynthetic(uint64_t count,
                                                   AccountType type) {
  return CreateSynthetic(count, [type](uint64_t) { return type; });
}

void AccountRegistry::Append(std::string address, AccountType type) {
  order_keys_.push_back(Sha256::Hash64(address));
  addresses_.push_back(std::move(address));
  types_.push_back(type);
}

Result<AccountId> AccountRegistry::Find(const std::string& address) const {
  const AccountId id = Lookup(address);
  if (id == kInvalidAccount) {
    return Status::NotFound("unknown account address: " + address);
  }
  return id;
}

AccountId AccountRegistry::Lookup(const std::string& address) const {
  auto it = index_.find(address);
  if (it != index_.end()) return it->second;
  if (!address.starts_with(kSyntheticPrefix)) return kInvalidAccount;
  uint64_t id = 0;
  const char* end = address.data() + address.size();
  const auto [ptr, ec] =
      std::from_chars(address.data() + kSyntheticPrefix.size(), end, id);
  if (ec != std::errc() || ptr != end || id >= addresses_.size() ||
      addresses_[id] != address) {
    return kInvalidAccount;
  }
  return static_cast<AccountId>(id);
}

std::vector<AccountId> AccountRegistry::IdsInHashOrder() const {
  std::vector<AccountId> ids(addresses_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<AccountId>(i);
  std::sort(ids.begin(), ids.end(), [this](AccountId a, AccountId b) {
    if (order_keys_[a] != order_keys_[b]) {
      return order_keys_[a] < order_keys_[b];
    }
    return a < b;
  });
  return ids;
}

}  // namespace txallo::chain
