// FlatMap: the deterministic hot-path container the account registry and
// the shard state DB are built on. The load-bearing properties
// are (a) std::unordered_map-equivalent lookup semantics under randomized
// insert/erase schedules and (b) iteration order that is a pure function of
// the operation sequence — never of hash seeds or load factors.
#include "txallo/common/flat_map.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "txallo/common/rng.h"

namespace txallo::common {
namespace {

TEST(FlatMapTest, EmptyMap) {
  FlatMap<uint32_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.count(7), 0u);
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMapTest, InsertFindOverwrite) {
  FlatMap<uint32_t, int> map;
  auto [it, inserted] = map.emplace(4u, 40);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 40);
  auto [it2, inserted2] = map.emplace(4u, 99);
  EXPECT_FALSE(inserted2);  // emplace does not overwrite.
  EXPECT_EQ(it2->second, 40);
  map[4u] = 41;  // operator[] does.
  EXPECT_EQ(map.find(4u)->second, 41);
  map[5u] = 50;  // ... and default-constructs on miss.
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, IterationIsInsertionOrder) {
  FlatMap<uint32_t, int> map;
  // Keys chosen to collide modulo small power-of-two tables: iteration
  // order must still be the emplace order.
  const std::vector<uint32_t> keys = {1024, 7, 2048, 15, 4096, 3, 8192};
  for (size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<int>(i));
  }
  size_t i = 0;
  for (const auto& entry : map) {
    EXPECT_EQ(entry.first, keys[i]);
    EXPECT_EQ(entry.second, static_cast<int>(i));
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

TEST(FlatMapTest, EraseSwapsLastIntoHole) {
  FlatMap<uint32_t, int> map;
  for (uint32_t k = 0; k < 5; ++k) map.emplace(k, static_cast<int>(k * 10));
  EXPECT_EQ(map.erase(1u), 1u);
  // Erase is swap-with-last on the dense array: deterministic permutation.
  std::vector<uint32_t> order;
  for (const auto& entry : map) order.push_back(entry.first);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 4, 2, 3}));
  for (uint32_t k : order) EXPECT_EQ(map.find(k)->second, static_cast<int>(k * 10));
  EXPECT_EQ(map.find(1u), map.end());
}

TEST(FlatMapTest, EraseByIterator) {
  FlatMap<uint64_t, std::string> map;
  map.emplace(10u, "a");
  map.emplace(20u, "b");
  auto it = map.find(10u);
  ASSERT_NE(it, map.end());
  map.erase(it);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(10u), map.end());
  EXPECT_EQ(map.find(20u)->second, "b");
}

TEST(FlatMapTest, StringKeys) {
  FlatMap<std::string, uint32_t> map;
  map.emplace(std::string("acct-1"), 1u);
  map.emplace(std::string("acct-2"), 2u);
  EXPECT_EQ(map.find("acct-1")->second, 1u);
  EXPECT_EQ(map.find("acct-3"), map.end());
}

// Randomized schedule: FlatMap must agree with std::unordered_map on every
// lookup after any interleaving of inserts, overwrites, and erases — and
// two FlatMaps fed the same schedule must iterate identically (the
// determinism contract the lint's unordered-iter rule cannot give
// std::unordered_map).
TEST(FlatMapTest, RandomizedEquivalenceAndDeterminism) {
  Rng rng(2024);
  FlatMap<uint32_t, uint64_t> map;
  FlatMap<uint32_t, uint64_t> twin;
  std::unordered_map<uint32_t, uint64_t> reference;
  for (int step = 0; step < 20'000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(512));
    const uint64_t action = rng.NextBounded(4);
    if (action == 0) {
      const size_t erased = map.erase(key);
      twin.erase(key);
      EXPECT_EQ(erased, reference.erase(key));
    } else {
      const uint64_t value = rng.NextUint64();
      map[key] = value;
      twin[key] = value;
      reference[key] = value;
    }
    if (step % 257 == 0) {
      EXPECT_EQ(map.size(), reference.size());
      for (const auto& [k, v] : reference) {
        auto it = map.find(k);
        ASSERT_NE(it, map.end());
        EXPECT_EQ(it->second, v);
      }
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& entry : map) {
    auto it = reference.find(entry.first);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(entry.second, it->second);
  }
  // Same schedule => byte-identical iteration order.
  ASSERT_EQ(map.size(), twin.size());
  auto a = map.begin();
  auto b = twin.begin();
  for (; a != map.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(a->second, b->second);
  }
}

TEST(FlatMapTest, CopyPreservesOrderAndLookup) {
  FlatMap<uint32_t, int> map;
  for (uint32_t k = 0; k < 100; ++k) map.emplace(k * 37u, static_cast<int>(k));
  const FlatMap<uint32_t, int> copy = map;
  EXPECT_EQ(copy.size(), map.size());
  auto a = map.begin();
  auto b = copy.begin();
  for (; a != map.end(); ++a, ++b) EXPECT_EQ(a->first, b->first);
  EXPECT_EQ(copy.find(37u * 50u)->second, 50);
  EXPECT_GT(copy.MemoryBytes(), 0u);
}

TEST(FlatMapTest, ReserveKeepsContents) {
  FlatMap<uint32_t, int> map;
  map.emplace(1u, 10);
  map.reserve(10'000);
  EXPECT_EQ(map.find(1u)->second, 10);
  for (uint32_t k = 0; k < 1000; ++k) map.emplace(100u + k, 0);
  EXPECT_EQ(map.size(), 1001u);
}

TEST(FlatMapTest, AbsentKeysInsideAContiguousRun) {
  // Consecutive integer keys (the state DB's staged sequence numbers) next
  // to lookups of absent keys inside and around the run, with erases
  // punching holes: every answer must match std::unordered_map.
  FlatMap<uint64_t, int> map;
  std::unordered_map<uint64_t, int> reference;
  for (uint64_t k = 1000; k < 9000; ++k) {
    map.emplace(k, static_cast<int>(k));
    reference.emplace(k, static_cast<int>(k));
  }
  for (uint64_t k = 1000; k < 9000; k += 3) {
    EXPECT_EQ(map.erase(k), reference.erase(k));
  }
  for (uint64_t k = 0; k < 20'000; ++k) {
    const auto it = map.find(k);
    const auto want = reference.find(k);
    ASSERT_EQ(it == map.end(), want == reference.end()) << "key " << k;
    if (it != map.end()) {
      EXPECT_EQ(it->second, want->second) << "key " << k;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

}  // namespace
}  // namespace txallo::common
