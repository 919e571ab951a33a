#include "txallo/chain/account.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "txallo/common/sha256.h"

namespace txallo::chain {
namespace {

TEST(AccountRegistryTest, InternIsIdempotent) {
  AccountRegistry registry;
  AccountId a = registry.Intern("0xabc");
  AccountId b = registry.Intern("0xdef");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.Intern("0xabc"), a);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(AccountRegistryTest, AddressRoundTrip) {
  AccountRegistry registry;
  AccountId a = registry.Intern("0xabc");
  EXPECT_EQ(registry.AddressOf(a), "0xabc");
}

TEST(AccountRegistryTest, FindMissingIsNotFound) {
  AccountRegistry registry;
  auto result = registry.Find("0xmissing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(AccountRegistryTest, FindExisting) {
  AccountRegistry registry;
  AccountId a = registry.Intern("0xabc");
  auto result = registry.Find("0xabc");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), a);
}

TEST(AccountRegistryTest, TypesAreStored) {
  AccountRegistry registry;
  AccountId eoa = registry.Intern("0xclient", AccountType::kExternallyOwned);
  AccountId ca = registry.Intern("0xcontract", AccountType::kContract);
  EXPECT_EQ(registry.TypeOf(eoa), AccountType::kExternallyOwned);
  EXPECT_EQ(registry.TypeOf(ca), AccountType::kContract);
}

TEST(AccountRegistryTest, SyntheticAddressesAreUniqueAndDense) {
  AccountRegistry registry;
  for (int i = 0; i < 100; ++i) {
    AccountId id = registry.CreateSynthetic(1).value();
    EXPECT_EQ(id, static_cast<AccountId>(i));
  }
  std::set<std::string> addresses;
  for (int i = 0; i < 100; ++i) {
    addresses.insert(registry.AddressOf(static_cast<AccountId>(i)));
  }
  EXPECT_EQ(addresses.size(), 100u);
}

TEST(AccountRegistryTest, SyntheticAddressIsFindable) {
  AccountRegistry registry;
  AccountId id = registry.CreateSynthetic(1).value();
  auto found = registry.Find("acct-0");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), id);
}

TEST(AccountRegistryTest, BulkSyntheticCreateIsOneDenseTypedRange) {
  AccountRegistry registry;
  ASSERT_EQ(registry.CreateSynthetic(3).value(), 0u);
  const Result<AccountId> first = registry.CreateSynthetic(
      5, [](uint64_t id) {
        return id % 2 == 0 ? AccountType::kContract
                           : AccountType::kExternallyOwned;
      });
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 3u);
  ASSERT_EQ(registry.size(), 8u);
  for (AccountId id = 3; id < 8; ++id) {
    const std::string address = "acct-" + std::to_string(id);
    EXPECT_EQ(registry.AddressOf(id), address);
    EXPECT_EQ(registry.Find(address).value(), id);
    EXPECT_EQ(registry.OrderKey(id), Sha256::Hash64(address));
    EXPECT_EQ(registry.TypeOf(id), id % 2 == 0
                                       ? AccountType::kContract
                                       : AccountType::kExternallyOwned);
  }
}

TEST(AccountRegistryTest, SyntheticAndInternedAddressesResolveTheSameWay) {
  AccountRegistry registry;
  // An interned address that looks synthetic keeps its interned id, also
  // after a synthetic account of that name exists.
  const AccountId early = registry.Intern("acct-2");
  ASSERT_TRUE(registry.CreateSynthetic(3).ok());  // acct-1 .. acct-3.
  EXPECT_EQ(registry.Find("acct-2").value(), early);
  EXPECT_EQ(registry.Intern("acct-2"), early);
  // A synthetic address interned later resolves to the synthetic account.
  EXPECT_EQ(registry.Intern("acct-3"), 3u);
  EXPECT_EQ(registry.Find("acct-1").value(), 1u);
  EXPECT_EQ(registry.size(), 4u);
  // Only exact synthetic spellings of existing ids resolve.
  for (const char* unknown : {"acct-4", "acct-01", "acct-", "acct-1x",
                              "acct--1", "acct-18446744073709551617"}) {
    EXPECT_FALSE(registry.Find(unknown).ok()) << unknown;
  }
  EXPECT_EQ(registry.Intern("acct-01"), 4u);
  EXPECT_EQ(registry.Find("acct-01").value(), 4u);
}

TEST(AccountRegistryTest, RefusesToHandOutTheInvalidAccountId) {
  AccountRegistry registry;
  // Ids 0 .. kInvalidAccount - 1 exist; one more account would be
  // kInvalidAccount itself. Refused before anything is allocated.
  const Result<AccountId> too_many =
      registry.CreateSynthetic(uint64_t{kInvalidAccount} + 1);
  EXPECT_EQ(too_many.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(registry.size(), 0u);
  ASSERT_TRUE(registry.CreateSynthetic(10).ok());
  EXPECT_EQ(registry.CreateSynthetic(uint64_t{kInvalidAccount} - 9)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(registry.CreateSynthetic(UINT64_MAX).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(registry.size(), 10u);
}

TEST(AccountRegistryTest, HashOrderIsPermutationAndDeterministic) {
  AccountRegistry registry;
  ASSERT_TRUE(registry.CreateSynthetic(500).ok());
  auto order1 = registry.IdsInHashOrder();
  auto order2 = registry.IdsInHashOrder();
  EXPECT_EQ(order1, order2);
  std::set<AccountId> unique(order1.begin(), order1.end());
  EXPECT_EQ(unique.size(), 500u);
  // Order keys must actually be sorted.
  for (size_t i = 1; i < order1.size(); ++i) {
    EXPECT_LE(registry.OrderKey(order1[i - 1]), registry.OrderKey(order1[i]));
  }
}

TEST(AccountRegistryTest, HashOrderDiffersFromIdOrder) {
  // With 500 accounts the probability the SHA-based order equals id order
  // is effectively zero; if it does, OrderKey is broken.
  AccountRegistry registry;
  ASSERT_TRUE(registry.CreateSynthetic(500).ok());
  auto order = registry.IdsInHashOrder();
  bool differs = false;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<AccountId>(i)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace txallo::chain
