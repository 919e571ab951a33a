// TwoPhaseCoordinator retires each transaction once it and every older one
// are decided, so it holds only the window from the oldest undecided
// transaction on. This differential test drives it and a keep-every-entry
// reference (the coordinator's earlier, never-retiring form) with the same
// random register / vote / failed-vote / flush streams: decisions, stats,
// the latency histogram and the canonical commit events must be equal, and
// the retained entries must never exceed the undecided window (0 when
// idle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "txallo/common/histogram.h"
#include "txallo/common/rng.h"
#include "txallo/engine/two_phase.h"

namespace txallo::engine {
namespace {

// One entry per transaction ever registered, indexed by tx_index.
class KeepEveryEntryCoordinator {
 public:
  explicit KeepEveryEntryCoordinator(sim::WorkModel model) : model_(model) {}

  uint64_t Register(uint64_t arrival_block, uint32_t participants,
                    bool cross_shard, uint64_t seq) {
    txs_.push_back(Entry{arrival_block, seq, participants, cross_shard});
    ++stats_.submitted;
    if (cross_shard) ++stats_.cross_shard_submitted;
    ++stats_.in_flight;
    return txs_.size() - 1;
  }

  void PartExecuted(uint64_t tx_index, uint64_t block, bool ok) {
    Entry& tx = txs_[tx_index];
    ++stats_.prepares_received;
    if (!ok) tx.abort_pending = true;
    if (--tx.parts_remaining > 0) return;
    --stats_.in_flight;
    if (tx.abort_pending) {
      Decide(tx_index, block, /*aborted=*/true);
      return;
    }
    const uint64_t commit_block = model_.CommitBlock(block, tx.cross_shard);
    if (commit_block > block) {
      delayed_.emplace_back(commit_block, tx_index);
      ++stats_.awaiting_commit_round;
      return;
    }
    Decide(tx_index, block, /*aborted=*/false);
  }

  void FlushDelayed(uint64_t now) {
    size_t i = 0;
    for (; i < delayed_.size() && delayed_[i].first <= now; ++i) {
      --stats_.awaiting_commit_round;
      Decide(delayed_[i].second, now, /*aborted=*/false);
    }
    delayed_.erase(delayed_.begin(), delayed_.begin() + i);
  }

  std::vector<TwoPhaseCoordinator::Decision> TakeDecisions() {
    return std::exchange(decisions_, {});
  }

  std::vector<CommitEvent> CanonicalCommitEvents() const {
    std::vector<CommitEvent> events = events_;
    std::sort(events.begin(), events.end(),
              [](const CommitEvent& a, const CommitEvent& b) {
                return a.block != b.block ? a.block < b.block : a.seq < b.seq;
              });
    return events;
  }

  bool decided(uint64_t tx_index) const { return txs_[tx_index].decided; }
  bool undecided_parts(uint64_t tx_index) const {
    return txs_[tx_index].parts_remaining > 0;
  }
  uint64_t registered() const { return txs_.size(); }
  const CommitStats& stats() const { return stats_; }
  const common::Histogram& LatencyHistogram() const { return latency_hist_; }

 private:
  struct Entry {
    uint64_t arrival_block;
    uint64_t seq;
    uint32_t parts_remaining;
    bool cross_shard;
    bool abort_pending = false;
    bool decided = false;
  };

  void Decide(uint64_t tx_index, uint64_t block, bool aborted) {
    Entry& tx = txs_[tx_index];
    tx.decided = true;
    if (aborted) {
      ++stats_.aborted;
      if (tx.cross_shard) ++stats_.cross_shard_aborted;
    } else {
      ++stats_.committed;
      if (tx.cross_shard) ++stats_.cross_shard_committed;
      const double latency = static_cast<double>(block - tx.arrival_block);
      stats_.latency_sum_blocks += latency;
      stats_.latency_max_blocks = std::max(stats_.latency_max_blocks, latency);
      latency_hist_.Record(block - tx.arrival_block);
    }
    events_.push_back(CommitEvent{block, tx.seq, tx.cross_shard, aborted});
    decisions_.push_back({block, tx.seq, aborted});
  }

  const sim::WorkModel model_;
  std::vector<Entry> txs_;
  std::vector<std::pair<uint64_t, uint64_t>> delayed_;
  CommitStats stats_;
  std::vector<CommitEvent> events_;
  std::vector<TwoPhaseCoordinator::Decision> decisions_;
  common::Histogram latency_hist_;
};

void ExpectSameStats(const CommitStats& a, const CommitStats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.cross_shard_submitted, b.cross_shard_submitted);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.cross_shard_committed, b.cross_shard_committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.cross_shard_aborted, b.cross_shard_aborted);
  EXPECT_EQ(a.prepares_received, b.prepares_received);
  EXPECT_EQ(a.awaiting_commit_round, b.awaiting_commit_round);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.latency_sum_blocks, b.latency_sum_blocks);
  EXPECT_EQ(a.latency_max_blocks, b.latency_max_blocks);
}

bool SameDecisions(const std::vector<TwoPhaseCoordinator::Decision>& a,
                   const std::vector<TwoPhaseCoordinator::Decision>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].block != b[i].block || a[i].seq != b[i].seq ||
        a[i].aborted != b[i].aborted) {
      return false;
    }
  }
  return true;
}

// One random stream: transactions of 1-4 parts arrive, votes (a few of
// them failed) land on random undecided transactions, blocks advance and
// flush. Some transactions are left waiting for many blocks so the window
// holds decided transactions behind an undecided one.
void RunStream(uint64_t seed, uint32_t commit_rounds) {
  sim::WorkModel model;
  model.cross_shard_commit_rounds = commit_rounds;
  TwoPhaseCoordinator coordinator(model);
  coordinator.EnableEventRecording();
  coordinator.EnableDecisionCollection();
  KeepEveryEntryCoordinator reference(model);
  Rng rng(seed);
  uint64_t now = 0;
  uint64_t oldest_undecided = 0;
  std::vector<uint64_t> voting;  // Transactions with votes outstanding.
  size_t max_retained = 0;
  for (int step = 0; step < 30000; ++step) {
    const uint64_t action = rng.NextBounded(10);
    if (action < 4) {
      const auto parts = static_cast<uint32_t>(1 + rng.NextBounded(4));
      const uint64_t seq = 1000 + reference.registered();
      const uint64_t tx = coordinator.Register(now, parts, parts > 1, seq);
      ASSERT_EQ(tx, reference.Register(now, parts, parts > 1, seq));
      voting.push_back(tx);
    } else if (action < 8 && !voting.empty()) {
      // Mostly recent transactions: the oldest ones linger.
      const size_t lo = voting.size() > 8 && rng.NextBounded(8) != 0
                            ? voting.size() - 8
                            : 0;
      const size_t pick = lo + rng.NextBounded(voting.size() - lo);
      const uint64_t tx = voting[pick];
      const bool ok = rng.NextBounded(12) != 0;
      coordinator.PartExecuted(tx, now, ok);
      reference.PartExecuted(tx, now, ok);
      if (!reference.undecided_parts(tx)) {
        voting.erase(voting.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else {
      ++now;
      coordinator.FlushDelayed(now);
      reference.FlushDelayed(now);
    }
    ASSERT_TRUE(
        SameDecisions(coordinator.TakeDecisions(), reference.TakeDecisions()))
        << "seed " << seed << " step " << step;
    ExpectSameStats(coordinator.stats(), reference.stats());
    while (oldest_undecided < reference.registered() &&
           reference.decided(oldest_undecided)) {
      ++oldest_undecided;
    }
    const uint64_t window = reference.registered() - oldest_undecided;
    ASSERT_LE(coordinator.retained(), window)
        << "seed " << seed << " step " << step;
    max_retained = std::max(max_retained, coordinator.retained());
    if (coordinator.Idle()) {
      ASSERT_EQ(coordinator.retained(), 0u)
          << "seed " << seed << " step " << step;
    }
  }
  // Drain: every outstanding vote lands, then the commit rounds pass.
  for (uint64_t tx : voting) {
    while (reference.undecided_parts(tx)) {
      coordinator.PartExecuted(tx, now, true);
      reference.PartExecuted(tx, now, true);
    }
  }
  for (uint32_t r = 0; r <= commit_rounds; ++r) {
    ++now;
    coordinator.FlushDelayed(now);
    reference.FlushDelayed(now);
  }
  EXPECT_TRUE(
      SameDecisions(coordinator.TakeDecisions(), reference.TakeDecisions()));
  ExpectSameStats(coordinator.stats(), reference.stats());
  EXPECT_TRUE(coordinator.Idle());
  EXPECT_EQ(coordinator.retained(), 0u);
  EXPECT_TRUE(coordinator.LatencyHistogram() == reference.LatencyHistogram());
  EXPECT_EQ(coordinator.CanonicalCommitEvents(),
            reference.CanonicalCommitEvents());
  // The stream must have held a window of many transactions behind a
  // lingering one, run through several of the coordinator's 4,096-entry
  // chunks, and exercised aborts and delayed commits alike.
  EXPECT_GT(max_retained, 64u) << "seed " << seed;
  EXPECT_GT(reference.registered(), 10'000u) << "seed " << seed;
  EXPECT_GT(reference.stats().aborted, 0u);
  EXPECT_GT(reference.stats().cross_shard_committed, 0u);
}

TEST(TwoPhaseWindowTest, RetiringCoordinatorMatchesKeepEveryEntryReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunStream(seed, /*commit_rounds=*/static_cast<uint32_t>(seed % 3));
  }
}

}  // namespace
}  // namespace txallo::engine
