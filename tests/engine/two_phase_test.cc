#include "txallo/engine/two_phase.h"

#include <gtest/gtest.h>

#include <thread>
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
  c.PartPrepared(tx, /*block=*/3);
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
  c.PartPrepared(tx, 1);
  c.PartPrepared(tx, 1);
  EXPECT_EQ(c.stats().committed, 0u);
  EXPECT_EQ(c.stats().in_flight, 1u);
  c.PartPrepared(tx, 4);  // Last vote at block 4 -> decision at block 6.
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
  c.PartPrepared(tx, 2);
  c.PartPrepared(tx, 3);
  const CommitStats stats = c.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_DOUBLE_EQ(stats.latency_sum_blocks, 2.0);  // 3 - 1.
}

TEST(TwoPhaseTest, DelayedCommitLatencyIsChargedAtFlush) {
  // Commit-at-flush semantics: a delayed commit flushed at `now` is charged
  // now - arrival.
  TwoPhaseCoordinator c(Model(1));
  const uint64_t tx = c.Register(2, 2, true, /*seq=*/0);
  c.PartPrepared(tx, 5);
  c.PartPrepared(tx, 5);
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
  c.PartPrepared(a, 1);
  c.PartPrepared(b, 1);
  c.PartPrepared(x, 1);
  c.PartPrepared(x, 1);  // Cross: decision lands at block 2.
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
  c.PartPrepared(tx, 1);
  EXPECT_TRUE(c.CanonicalCommitEvents().empty());
}

TEST(TwoPhaseTest, ConcurrentVotesFromManyWorkers) {
  TwoPhaseCoordinator c(Model(1));
  constexpr int kThreads = 8;
  constexpr int kTxPerThread = 500;
  // Each "transaction" has kThreads participants; every thread votes once
  // per transaction, concurrently.
  std::vector<uint64_t> txs;
  txs.reserve(kTxPerThread);
  for (int i = 0; i < kTxPerThread; ++i) {
    txs.push_back(c.Register(0, kThreads, true, static_cast<uint64_t>(i)));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &txs] {
      for (uint64_t tx : txs) c.PartPrepared(tx, 1);
    });
  }
  for (auto& w : workers) w.join();
  c.FlushDelayed(2);
  const CommitStats stats = c.stats();
  EXPECT_EQ(stats.prepares_received,
            static_cast<uint64_t>(kThreads) * kTxPerThread);
  EXPECT_EQ(stats.committed, static_cast<uint64_t>(kTxPerThread));
  EXPECT_TRUE(c.Idle());
}

}  // namespace
}  // namespace txallo::engine
