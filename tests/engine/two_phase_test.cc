#include "txallo/engine/two_phase.h"

#include <gtest/gtest.h>

#include <vector>

namespace txallo::engine {
namespace {

sim::WorkModel Model(uint32_t commit_rounds) {
  sim::WorkModel model;
  model.cross_shard_commit_rounds = commit_rounds;
  return model;
}

TEST(TwoPhaseTest, IntraShardCommitsAtLastPrepare) {
  TwoPhaseCoordinator c(Model(1));
  const uint64_t tx = c.Register(/*arrival_block=*/0, /*participants=*/1,
                                 /*cross_shard=*/false, /*seq=*/0);
  c.PartExecuted(tx, /*block=*/3, /*ok=*/true);
  const CommitStats stats = c.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.cross_shard_committed, 0u);
  EXPECT_EQ(stats.prepares_received, 1u);
  EXPECT_DOUBLE_EQ(stats.latency_sum_blocks, 3.0);
  EXPECT_TRUE(c.Idle());
}

TEST(TwoPhaseTest, CrossShardWaitsForAllVotesThenPaysExtraRound) {
  TwoPhaseCoordinator c(Model(2));
  const uint64_t tx =
      c.Register(0, /*participants=*/3, /*cross_shard=*/true, /*seq=*/0);
  c.PartExecuted(tx, 1, /*ok=*/true);
  c.PartExecuted(tx, 1, /*ok=*/true);
  EXPECT_EQ(c.stats().committed, 0u);
  EXPECT_EQ(c.stats().in_flight, 1u);
  // Last vote at block 4 -> decision at block 6.
  c.PartExecuted(tx, 4, /*ok=*/true);
  CommitStats stats = c.stats();
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_EQ(stats.awaiting_commit_round, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  c.FlushDelayed(5);  // Too early.
  EXPECT_EQ(c.stats().committed, 0u);
  c.FlushDelayed(6);
  stats = c.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.cross_shard_committed, 1u);
  EXPECT_EQ(stats.awaiting_commit_round, 0u);
  EXPECT_DOUBLE_EQ(stats.latency_sum_blocks, 6.0);
  EXPECT_DOUBLE_EQ(stats.latency_max_blocks, 6.0);
  EXPECT_TRUE(c.Idle());
}

TEST(TwoPhaseTest, ZeroCommitRoundsCommitsCrossShardImmediately) {
  TwoPhaseCoordinator c(Model(0));
  const uint64_t tx = c.Register(1, 2, /*cross_shard=*/true, /*seq=*/0);
  c.PartExecuted(tx, 2, /*ok=*/true);
  c.PartExecuted(tx, 3, /*ok=*/true);
  const CommitStats stats = c.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_DOUBLE_EQ(stats.latency_sum_blocks, 2.0);  // 3 - 1.
}

TEST(TwoPhaseTest, DelayedCommitLatencyIsChargedAtFlush) {
  // Commit-at-flush semantics: a delayed commit flushed at `now` is charged
  // now - arrival.
  TwoPhaseCoordinator c(Model(1));
  const uint64_t tx = c.Register(2, 2, true, /*seq=*/0);
  c.PartExecuted(tx, 5, /*ok=*/true);
  c.PartExecuted(tx, 5, /*ok=*/true);
  c.FlushDelayed(6);
  EXPECT_DOUBLE_EQ(c.stats().latency_sum_blocks, 4.0);  // 6 - 2.
}

TEST(TwoPhaseTest, CanonicalCommitEventsSortedByBlockThenSeq) {
  // Voting interleaving must not show in the recorded outcome stream:
  // register/vote in scrambled seq order, expect (block, seq) canonical
  // order out.
  TwoPhaseCoordinator c(Model(1));
  c.EnableEventRecording();
  const uint64_t a = c.Register(0, 1, false, /*seq=*/7);
  const uint64_t b = c.Register(0, 1, false, /*seq=*/3);
  const uint64_t x = c.Register(0, 2, true, /*seq=*/5);
  c.PartExecuted(a, 1, /*ok=*/true);
  c.PartExecuted(b, 1, /*ok=*/true);
  c.PartExecuted(x, 1, /*ok=*/true);
  c.PartExecuted(x, 1, /*ok=*/true);  // Cross: decision lands at block 2.
  c.FlushDelayed(2);
  const std::vector<CommitEvent> events = c.CanonicalCommitEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (CommitEvent{1, 3, false}));
  EXPECT_EQ(events[1], (CommitEvent{1, 7, false}));
  EXPECT_EQ(events[2], (CommitEvent{2, 5, true}));
}

TEST(TwoPhaseTest, EventRecordingOffByDefault) {
  TwoPhaseCoordinator c(Model(1));
  const uint64_t tx = c.Register(0, 1, false, 0);
  c.PartExecuted(tx, 1, /*ok=*/true);
  EXPECT_TRUE(c.CanonicalCommitEvents().empty());
}

}  // namespace
}  // namespace txallo::engine
