// common::ForkJoinPool: every lane runs exactly once per Run(), lane 0 on
// the caller, lane writes are the caller's when Run() returns, a lane's
// exception reaches the caller only after the join, and the pool shuts down
// cleanly whether or not it ever ran. Work below kInlineWorkThreshold runs
// every lane on the caller in lane order, with the same exception contract.
// Labelled `engine` so the TSan preset races the generation /
// remaining-count handshake; the fan-out cases pass kFanOut work.
#include "txallo/common/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace txallo::common {
namespace {

constexpr uint64_t kFanOut = kInlineWorkThreshold;
constexpr uint64_t kInline = kInlineWorkThreshold - 1;

TEST(ForkJoinPoolTest, EveryLaneRunsExactlyOncePerRun) {
  constexpr int kRuns = 10'000;
  for (const uint32_t lanes : {1u, 2u, 3u, 8u}) {
    ForkJoinPool pool(lanes);
    ASSERT_EQ(pool.lanes(), lanes);
    std::vector<std::atomic<uint32_t>> calls(lanes);
    for (int run = 0; run < kRuns; ++run) {
      pool.Run(kFanOut, [&](uint32_t lane) {
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
  pool.Run(kFanOut, [&](uint32_t lane) {
    EXPECT_EQ(lane, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.parked_seconds(), 0.0);
}

TEST(ForkJoinPoolTest, InlineWorkRunsEveryLaneOnTheCallerInLaneOrder) {
  constexpr uint32_t kLanes = 4;
  ForkJoinPool pool(kLanes);
  for (const uint64_t work : {uint64_t{0}, uint64_t{1}, kInline}) {
    std::vector<uint32_t> order;
    std::vector<std::thread::id> ran_on;
    pool.Run(work, [&](uint32_t lane) {
      // Unsynchronized pushes: only a single thread may run the lanes.
      order.push_back(lane);
      ran_on.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3})) << "work=" << work;
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
}

TEST(ForkJoinPoolTest, InlineLaneExceptionIsRethrownAfterEveryLaneRan) {
  constexpr uint32_t kLanes = 4;
  ForkJoinPool pool(kLanes);
  for (const uint32_t thrower : {0u, 2u, 3u}) {
    std::vector<uint32_t> ran;
    const auto fn = [&](uint32_t lane) {
      ran.push_back(lane);
      if (lane == thrower) throw std::runtime_error("lane failed");
    };
    EXPECT_THROW(pool.Run(kInline, fn), std::runtime_error);
    // The lanes after the thrower still ran, in order, before the rethrow.
    EXPECT_EQ(ran, (std::vector<uint32_t>{0, 1, 2, 3})) << thrower;
  }
  // Only the first exception surfaces when several lanes throw.
  const auto all_throw = [](uint32_t lane) {
    throw std::runtime_error("lane " + std::to_string(lane));
  };
  try {
    pool.Run(kInline, all_throw);
    ADD_FAILURE() << "Run() did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "lane 0");
  }
  // The pool stays usable on both paths.
  for (const uint64_t work : {kInline, kFanOut}) {
    std::atomic<uint32_t> calls{0};
    pool.Run(work, [&](uint32_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), kLanes) << "work=" << work;
  }
}

TEST(ForkJoinPoolTest, InlineRunsLeaveTheHelpersParked) {
  ForkJoinPool pool(2);
  pool.Run(kFanOut, [](uint32_t) {});
  const double parked = pool.parked_seconds();
  std::atomic<uint32_t> calls{0};
  for (int run = 0; run < 100; ++run) {
    pool.Run(kInline, [&](uint32_t) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 200u);
  EXPECT_EQ(pool.fan_outs(), 1u);
  // No inline run woke the helper, so no park ended.
  EXPECT_EQ(pool.parked_seconds(), parked);
}

TEST(ForkJoinPoolTest, LaneZeroIsTheCallerAndHelpersAreDistinct) {
  constexpr uint32_t kLanes = 4;
  ForkJoinPool pool(kLanes);
  std::vector<std::thread::id> ran_on(kLanes);
  pool.Run(kFanOut,
           [&](uint32_t lane) { ran_on[lane] = std::this_thread::get_id(); });
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
    pool.Run(kFanOut, [&](uint32_t lane) {
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
    EXPECT_THROW(pool.Run(kFanOut, fn), std::runtime_error);
    // Every other lane ran to completion before Run() rethrew.
    EXPECT_EQ(finished.load(), kLanes - 1);
  }
  // The pool stays usable.
  std::atomic<uint32_t> calls{0};
  pool.Run(kFanOut, [&](uint32_t) { calls.fetch_add(1); });
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
      pool.Run(kFanOut, [&](uint32_t) { total.fetch_add(1); });
    }
    EXPECT_GE(pool.parked_seconds(), 0.0);
  }
  EXPECT_EQ(total.load(), 8'000u);
}

}  // namespace
}  // namespace txallo::common
