#include "txallo/mempool/mempool.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace txallo::mempool {

namespace {

MempoolConfig Sanitize(MempoolConfig config) {
  config.staging_capacity = std::max<size_t>(1, config.staging_capacity);
  config.chunk_size = std::max<size_t>(1, config.chunk_size);
  return config;
}

}  // namespace

Mempool::Mempool(MempoolConfig config) : config_(Sanitize(config)) {}

chain::AccountId Mempool::PayerOf(const chain::Transaction& tx) {
  if (!tx.inputs().empty()) return tx.inputs().front();
  if (!tx.accounts().empty()) return tx.accounts().front();
  return chain::AccountId{0};
}

bool Mempool::TrySubmit(chain::Transaction tx, uint64_t fee,
                        uint64_t submit_tick, uint64_t pool_seq) {
  ++submitted_;
  if (staging_.size() >= config_.staging_capacity) {
    ++dropped_backpressure_;
    return false;
  }
  staging_.push_back(PendingTx{std::move(tx), fee, pool_seq, submit_tick, 0});
  return true;
}

size_t Mempool::SealTick(uint64_t tick) {
  std::vector<PendingTx> arrivals;
  arrivals.swap(staging_);
  // Everything downstream sees arrivals in pool_seq order, whatever order
  // they were submitted in.
  std::sort(arrivals.begin(), arrivals.end(),
            [](const PendingTx& a, const PendingTx& b) {
              return a.pool_seq < b.pool_seq;
            });

  if (config_.ttl_ticks > 0) {
    std::vector<uint64_t> expired;
    for (const auto& [seq, ref] : live_by_seq_) {
      if (tick >= ref.entry->tx.admit_tick + config_.ttl_ticks) {
        expired.push_back(seq);
      }
    }
    for (uint64_t seq : expired) {
      auto it = live_by_seq_.find(seq);
      Kill(it->second);
      live_by_seq_.erase(it);
      ++stats_.expired;
      // The priority index entry stays behind as a tombstone, skipped
      // lazily at TakeBatch.
    }
  }

  size_t admitted_now = 0;
  const size_t index_before = index_.size();
  std::map<chain::AccountId, uint32_t> rate_this_tick;
  std::deque<PendingTx> still_deferred;
  std::deque<PendingTx> retry;
  retry.swap(overflow_);
  for (auto& tx : retry) {
    if (Admit(std::move(tx), tick, rate_this_tick, still_deferred)) {
      ++admitted_now;
    }
  }
  for (PendingTx& tx : arrivals) {
    if (Admit(std::move(tx), tick, rate_this_tick, still_deferred)) {
      ++admitted_now;
    }
  }
  overflow_ = std::move(still_deferred);

  // Newly admitted keys were appended unsorted; order the tail and merge.
  if (index_.size() > index_before) {
    std::sort(index_.begin() + static_cast<ptrdiff_t>(index_before),
              index_.end(), WorsePriority);
    std::inplace_merge(index_.begin(),
                       index_.begin() + static_cast<ptrdiff_t>(index_before),
                       index_.end(), WorsePriority);
  }

  stats_.peak_depth =
      std::max<uint64_t>(stats_.peak_depth, live_by_seq_.size());
  if (dead_count_ >= config_.dead_compact_threshold) CompactOnce();
  return admitted_now;
}

bool Mempool::Admit(PendingTx&& tx, uint64_t tick,
                    std::map<chain::AccountId, uint32_t>& rate_this_tick,
                    std::deque<PendingTx>& still_deferred) {
  const chain::AccountId payer = PayerOf(tx.tx);

  uint64_t* drop_counter = nullptr;
  if (config_.capacity > 0 && live_by_seq_.size() >= config_.capacity) {
    drop_counter = &stats_.dropped_capacity;
  } else if (config_.account_pending_limit > 0) {
    auto it = pending_per_account_.find(payer);
    if (it != pending_per_account_.end() &&
        it->second >= config_.account_pending_limit) {
      drop_counter = &stats_.dropped_account_pending;
    }
  }
  if (drop_counter == nullptr && config_.account_rate_limit > 0) {
    auto it = rate_this_tick.find(payer);
    if (it != rate_this_tick.end() &&
        it->second >= config_.account_rate_limit) {
      drop_counter = &stats_.dropped_account_rate;
    }
  }

  if (drop_counter != nullptr) {
    const size_t defer_bound =
        config_.capacity > 0 ? config_.capacity : SIZE_MAX;
    if (config_.policy == AdmissionPolicy::kBlock &&
        still_deferred.size() < defer_bound) {
      ++stats_.deferred;
      still_deferred.push_back(std::move(tx));
    } else {
      ++(*drop_counter);
    }
    return false;
  }

  if (config_.account_rate_limit > 0) ++rate_this_tick[payer];
  ++pending_per_account_[payer];
  tx.admit_tick = tick;
  if (chunks_.empty() || chunks_.back()->full()) {
    chunks_.push_back(std::make_unique<MempoolChunk>(config_.chunk_size));
  }
  MempoolChunk* chunk = chunks_.back().get();
  MempoolChunk::Entry* entry = chunk->Append(std::move(tx));
  live_by_seq_[entry->tx.pool_seq] = LiveRef{chunk, entry};
  index_.push_back(PriorityKey{entry->tx.fee, entry->tx.pool_seq});
  ++stats_.admitted;
  return true;
}

void Mempool::Kill(const LiveRef& ref) {
  const chain::AccountId payer = PayerOf(ref.entry->tx.tx);
  ref.chunk->MarkDead(ref.entry);
  ++dead_count_;
  auto it = pending_per_account_.find(payer);
  assert(it != pending_per_account_.end() && it->second > 0);
  if (--it->second == 0) pending_per_account_.erase(it);
}

std::vector<PendingTx> Mempool::TakeBatch(size_t max_txs) {
  std::vector<PendingTx> out;
  while (out.size() < max_txs && !index_.empty()) {
    const PriorityKey key = index_.back();
    index_.pop_back();
    auto it = live_by_seq_.find(key.seq);
    if (it == live_by_seq_.end()) continue;  // expired tombstone
    out.push_back(it->second.entry->tx);
    Kill(it->second);
    live_by_seq_.erase(it);
  }
  return out;
}

AdmissionStats Mempool::stats() const {
  AdmissionStats s = stats_;
  s.submitted = submitted_;
  s.dropped_backpressure = dropped_backpressure_;
  return s;
}

size_t Mempool::CompactOnce() {
  const size_t before = chunks_.size();
  std::erase_if(chunks_, [this](const std::unique_ptr<MempoolChunk>& chunk) {
    if (!chunk->Reclaimable()) return false;
    assert(dead_count_ >= chunk->size());
    dead_count_ -= chunk->size();
    return true;
  });
  return before - chunks_.size();
}

}  // namespace txallo::mempool
