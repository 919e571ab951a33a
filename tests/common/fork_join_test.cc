// common::ForkJoinPool: every lane runs exactly once per Run(), lane 0 on
// the caller, lane writes are the caller's when Run() returns, a lane's
// exception reaches the caller only after the join, and the pool shuts down
// cleanly whether or not it ever ran. Labelled `engine` so the
// TSan preset races the generation / remaining-count handshake.
#include "txallo/common/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace txallo::common {
namespace {

TEST(ForkJoinPoolTest, EveryLaneRunsExactlyOncePerRun) {
  constexpr int kRuns = 10'000;
  for (const uint32_t lanes : {1u, 2u, 3u, 8u}) {
    ForkJoinPool pool(lanes);
    ASSERT_EQ(pool.lanes(), lanes);
    std::vector<std::atomic<uint32_t>> calls(lanes);
    for (int run = 0; run < kRuns; ++run) {
      pool.Run([&](uint32_t lane) {
        calls[lane].fetch_add(1, std::memory_order_relaxed);
      });
      // Checked after every Run: a lane that ran twice in one Run and
      // skipped the next would still balance out at the end.
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(calls[lane].load(), static_cast<uint32_t>(run + 1))
            << "lanes=" << lanes << " lane=" << lane << " run=" << run;
      }
    }
  }
}

TEST(ForkJoinPoolTest, ZeroLanesClampsToOne) {
  ForkJoinPool pool(0);
  EXPECT_EQ(pool.lanes(), 1u);
}

TEST(ForkJoinPoolTest, SingleLaneRunsOnTheCallingThread) {
  ForkJoinPool pool(1);
  std::thread::id ran_on;
  pool.Run([&](uint32_t lane) {
    EXPECT_EQ(lane, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.parked_seconds(), 0.0);
}

TEST(ForkJoinPoolTest, LaneZeroIsTheCallerAndHelpersAreDistinct) {
  constexpr uint32_t kLanes = 4;
  ForkJoinPool pool(kLanes);
  std::vector<std::thread::id> ran_on(kLanes);
  pool.Run([&](uint32_t lane) { ran_on[lane] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (uint32_t a = 1; a < kLanes; ++a) {
    EXPECT_NE(ran_on[a], std::this_thread::get_id());
    for (uint32_t b = a + 1; b < kLanes; ++b) EXPECT_NE(ran_on[a], ran_on[b]);
  }
}

TEST(ForkJoinPoolTest, LaneWritesAreVisibleAfterRun) {
  // Plain (non-atomic) writes: Run()'s join is the only synchronization,
  // so a missing happens-before edge is a TSan report, not just a wrong
  // value.
  constexpr uint32_t kLanes = 3;
  ForkJoinPool pool(kLanes);
  std::vector<uint64_t> sums(kLanes, 0);
  for (uint64_t run = 1; run <= 200; ++run) {
    pool.Run([&](uint32_t lane) {
      for (uint64_t i = 0; i < 100; ++i) sums[lane] += run * (lane + 1);
    });
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(sums[lane], 100 * (lane + 1) * run * (run + 1) / 2);
    }
  }
}

TEST(ForkJoinPoolTest, LaneExceptionIsRethrownAfterTheJoin) {
  constexpr uint32_t kLanes = 4;
  ForkJoinPool pool(kLanes);
  for (const uint32_t thrower : {0u, 2u}) {
    std::atomic<uint32_t> finished{0};
    const auto fn = [&](uint32_t lane) {
      if (lane == thrower) throw std::runtime_error("lane failed");
      finished.fetch_add(1);
    };
    EXPECT_THROW(pool.Run(fn), std::runtime_error);
    // Every other lane ran to completion before Run() rethrew.
    EXPECT_EQ(finished.load(), kLanes - 1);
  }
  // The pool stays usable.
  std::atomic<uint32_t> calls{0};
  pool.Run([&](uint32_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), kLanes);
}

TEST(ForkJoinPoolTest, NeverRunPoolDestructsCleanly) {
  for (const uint32_t lanes : {1u, 2u, 8u}) {
    ForkJoinPool pool(lanes);
  }
}

TEST(ForkJoinPoolTest, ManyTimesRunPoolDestructsCleanly) {
  std::atomic<uint64_t> total{0};
  {
    ForkJoinPool pool(8);
    for (int run = 0; run < 1'000; ++run) {
      pool.Run([&](uint32_t) { total.fetch_add(1); });
    }
    EXPECT_GE(pool.parked_seconds(), 0.0);
  }
  EXPECT_EQ(total.load(), 8'000u);
}

}  // namespace
}  // namespace txallo::common
