#include "txallo/sim/reconfig.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "txallo/common/rng.h"

namespace txallo::sim {
namespace {

TEST(ReconfigTest, IdenticalAllocationsMoveNothing) {
  alloc::Allocation a(10, 2);
  for (chain::AccountId id = 0; id < 10; ++id) a.Assign(id, id % 2);
  ReconfigStats stats = CompareAllocations(a, a);
  EXPECT_EQ(stats.accounts_compared, 10u);
  EXPECT_EQ(stats.accounts_moved, 0u);
  EXPECT_DOUBLE_EQ(stats.moved_fraction, 0.0);
}

TEST(ReconfigTest, CountsMoves) {
  alloc::Allocation before(4, 2), after(4, 2);
  for (chain::AccountId id = 0; id < 4; ++id) {
    before.Assign(id, 0);
    after.Assign(id, id < 2 ? 0u : 1u);
  }
  ReconfigStats stats = CompareAllocations(before, after);
  EXPECT_EQ(stats.accounts_moved, 2u);
  EXPECT_DOUBLE_EQ(stats.moved_fraction, 0.5);
}

TEST(ReconfigTest, NewAccountsAreNotMoves) {
  alloc::Allocation before(2, 2), after(5, 2);
  before.Assign(0, 0);
  before.Assign(1, 1);
  for (chain::AccountId id = 0; id < 5; ++id) after.Assign(id, 0);
  ReconfigStats stats = CompareAllocations(before, after);
  EXPECT_EQ(stats.accounts_compared, 2u);
  EXPECT_EQ(stats.accounts_moved, 1u);  // Account 1: shard 1 -> 0.
}

TEST(ReconfigTest, UnassignedEntriesSkipped) {
  alloc::Allocation before(3, 2), after(3, 2);
  before.Assign(0, 0);  // 1, 2 unassigned.
  after.Assign(0, 1);
  after.Assign(1, 0);
  ReconfigStats stats = CompareAllocations(before, after);
  EXPECT_EQ(stats.accounts_compared, 1u);
  EXPECT_EQ(stats.accounts_moved, 1u);
}

// The plain per-account loop CompareAllocations must agree with.
ReconfigStats NaiveCompare(const alloc::Allocation& before,
                           const alloc::Allocation& after) {
  ReconfigStats stats;
  const size_t n = std::min(before.num_accounts(), after.num_accounts());
  for (size_t a = 0; a < n; ++a) {
    const auto id = static_cast<chain::AccountId>(a);
    if (!before.IsAssigned(id) || !after.IsAssigned(id)) continue;
    ++stats.accounts_compared;
    if (before.shard_of(id) != after.shard_of(id)) ++stats.accounts_moved;
  }
  if (stats.accounts_compared > 0) {
    stats.moved_fraction = static_cast<double>(stats.accounts_moved) /
                           static_cast<double>(stats.accounts_compared);
  }
  return stats;
}

TEST(ReconfigTest, MatchesTheNaiveLoopOnRandomMappings) {
  // Unequal lengths either way round, a share of unassigned entries on each
  // side, and few shards so that unmoved accounts are common.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t shards = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    alloc::Allocation before(rng.NextBounded(300), shards);
    alloc::Allocation after(rng.NextBounded(300), shards);
    for (alloc::Allocation* mapping : {&before, &after}) {
      const uint64_t unassigned_in_8 = rng.NextBounded(8);
      for (size_t a = 0; a < mapping->num_accounts(); ++a) {
        if (rng.NextBounded(8) < unassigned_in_8) continue;
        mapping->Assign(static_cast<chain::AccountId>(a),
                        static_cast<alloc::ShardId>(rng.NextBounded(shards)));
      }
    }
    const ReconfigStats expected = NaiveCompare(before, after);
    const ReconfigStats got = CompareAllocations(before, after);
    EXPECT_EQ(got.accounts_compared, expected.accounts_compared) << trial;
    EXPECT_EQ(got.accounts_moved, expected.accounts_moved) << trial;
    EXPECT_EQ(got.moved_fraction, expected.moved_fraction) << trial;
  }
}

}  // namespace
}  // namespace txallo::sim
