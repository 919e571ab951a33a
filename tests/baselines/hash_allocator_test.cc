#include "txallo/baselines/hash_allocator.h"

#include <gtest/gtest.h>

namespace txallo::baselines {
namespace {

TEST(HashAllocatorTest, AssignsEveryAccountInRange) {
  alloc::Allocation a = AllocateByHash(size_t{1000}, 8);
  EXPECT_TRUE(a.Validate().ok());
  EXPECT_EQ(a.num_accounts(), 1000u);
  for (chain::AccountId id = 0; id < 1000; ++id) {
    EXPECT_LT(a.shard_of(id), 8u);
  }
}

TEST(HashAllocatorTest, DeterministicAcrossCalls) {
  alloc::Allocation a = AllocateByHash(size_t{500}, 16);
  alloc::Allocation b = AllocateByHash(size_t{500}, 16);
  EXPECT_TRUE(a == b);
}

TEST(HashAllocatorTest, RegistryVariantMatchesAddressHash) {
  chain::AccountRegistry registry;
  ASSERT_TRUE(registry.CreateSynthetic(200).ok());
  alloc::Allocation a = AllocateByHash(registry, 4);
  EXPECT_TRUE(a.Validate().ok());
  for (chain::AccountId id = 0; id < 200; ++id) {
    EXPECT_EQ(a.shard_of(id), registry.OrderKey(id) % 4);
  }
}

TEST(HashAllocatorTest, SpreadIsNearUniform) {
  alloc::Allocation a = AllocateByHash(size_t{32'000}, 16);
  auto sizes = a.ShardSizes();
  for (uint64_t s : sizes) {
    EXPECT_GT(s, 32'000 / 16 * 0.8);
    EXPECT_LT(s, 32'000 / 16 * 1.2);
  }
}

TEST(HashAllocatorTest, SingleShardDegenerate) {
  alloc::Allocation a = AllocateByHash(size_t{10}, 1);
  for (chain::AccountId id = 0; id < 10; ++id) {
    EXPECT_EQ(a.shard_of(id), 0u);
  }
}

}  // namespace
}  // namespace txallo::baselines
