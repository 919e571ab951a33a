#include "txallo/engine/two_phase.h"

#include <algorithm>
#include <utility>

namespace txallo::engine {

uint64_t TwoPhaseCoordinator::Register(uint64_t arrival_block,
                                       uint32_t participants,
                                       bool cross_shard, uint64_t seq) {
  const uint64_t tx_index = next_++;
  if ((tx_index & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<TxEntry[]>(kChunkMask + 1));
  }
  Entry(tx_index) =
      TxEntry{arrival_block, seq, participants, cross_shard, false, false};
  ++stats_.submitted;
  if (cross_shard) ++stats_.cross_shard_submitted;
  ++stats_.in_flight;
  return tx_index;
}

void TwoPhaseCoordinator::Decide(uint64_t tx_index, uint64_t decision_block,
                                 bool aborted) {
  TxEntry& tx = Entry(tx_index);
  if (aborted) {
    ++stats_.aborted;
    if (tx.cross_shard) ++stats_.cross_shard_aborted;
  } else {
    ++stats_.committed;
    if (tx.cross_shard) ++stats_.cross_shard_committed;
    const double latency =
        static_cast<double>(decision_block - tx.arrival_block);
    stats_.latency_sum_blocks += latency;
    stats_.latency_max_blocks = std::max(stats_.latency_max_blocks, latency);
    latency_hist_.Record(decision_block - tx.arrival_block);
  }
  if (record_events_) {
    events_.push_back(
        CommitEvent{decision_block, tx.seq, tx.cross_shard, aborted});
  }
  if (collect_decisions_) {
    decisions_.push_back(Decision{decision_block, tx.seq, aborted});
  }
  tx.decided = true;
  // Retire the decided prefix of the window.
  while (base_ < next_ && Entry(base_).decided) {
    // Crossing into the next chunk frees the one the window left.
    if ((++base_ & kChunkMask) == 0) chunks_.erase(chunks_.begin());
  }
}

void TwoPhaseCoordinator::EnableEventRecording() { record_events_ = true; }

void TwoPhaseCoordinator::EnableDecisionCollection() {
  collect_decisions_ = true;
}

std::vector<CommitEvent> TwoPhaseCoordinator::CanonicalCommitEvents() const {
  std::vector<CommitEvent> events = events_;
  // Decisions of one block land in PartExecuted/FlushDelayed interleaving
  // order; the sequence tag is the canonical tiebreak.
  std::sort(events.begin(), events.end(),
            [](const CommitEvent& a, const CommitEvent& b) {
              return a.block != b.block ? a.block < b.block : a.seq < b.seq;
            });
  return events;
}

void TwoPhaseCoordinator::PartExecuted(uint64_t tx_index, uint64_t block,
                                       bool ok) {
  TxEntry& tx = Entry(tx_index);
  ++stats_.prepares_received;
  if (!ok) tx.abort_pending = true;
  if (--tx.parts_remaining > 0) return;
  --stats_.in_flight;
  if (tx.abort_pending) {
    // Aborts resolve at the last-vote block: there is no commit round to
    // pay — participants drop their staged thunks and move on.
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

void TwoPhaseCoordinator::FlushDelayed(uint64_t now) {
  while (!delayed_.empty() && delayed_.front().first <= now) {
    const uint64_t tx_index = delayed_.front().second;
    delayed_.pop_front();
    --stats_.awaiting_commit_round;
    Decide(tx_index, now, /*aborted=*/false);
  }
}

std::vector<TwoPhaseCoordinator::Decision>
TwoPhaseCoordinator::TakeDecisions() {
  return std::exchange(decisions_, {});
}

}  // namespace txallo::engine
