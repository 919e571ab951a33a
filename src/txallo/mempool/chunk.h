// Mempool storage chunk: a fixed-capacity, append-only slab of pending
// transactions (the speedex mempool shape — storage grows by whole chunks,
// dead entries are tombstoned in place, and compaction reclaims chunks
// wholesale instead of shifting survivors around).
//
// The invariant everything else leans on: entries never move. A chunk
// reserves its full capacity up front and only ever appends, so an Entry*
// handed out by Append() stays valid until the whole chunk is destroyed —
// which the Mempool only does once every entry in it is dead and no live
// index refers to it. That is what lets the priority index and the
// seq-lookup map hold plain pointers across ticks and across compactions.
//
// Not thread-safe: a chunk is owned by a Mempool, which the driver owns.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "txallo/chain/transaction.h"

namespace txallo::mempool {

/// A transaction resident in the mempool, carrying the timestamps the
/// open-loop latency measurement needs. All ticks are logical blocks of the
/// engine clock — never wall time — so every latency derived from them is
/// bit-identical across thread counts.
struct PendingTx {
  chain::Transaction tx;
  /// Priority fee: higher dispatches first (ties broken by pool_seq).
  uint64_t fee = 0;
  /// Pool-wide ingest sequence tag (Mempool::ReserveSequenceRange): the
  /// deterministic tie-break and the stable identity of the transaction
  /// inside the pool.
  uint64_t pool_seq = 0;
  /// Tick at which the driver submitted it.
  uint64_t submit_tick = 0;
  /// Tick at which admission control accepted it (>= submit_tick; the gap
  /// is queueing delay spent in staging/deferral).
  uint64_t admit_tick = 0;
};

class MempoolChunk {
 public:
  struct Entry {
    PendingTx tx;
    bool dead = false;
  };

  explicit MempoolChunk(size_t capacity) : capacity_(capacity) {
    assert(capacity_ > 0);
    entries_.reserve(capacity_);
  }

  MempoolChunk(const MempoolChunk&) = delete;
  MempoolChunk& operator=(const MempoolChunk&) = delete;

  bool full() const { return entries_.size() >= capacity_; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  size_t live_count() const { return live_count_; }

  /// True once the chunk is at capacity with every entry dead — eligible
  /// for wholesale reclamation (Mempool::CompactOnce).
  bool Reclaimable() const { return full() && live_count_ == 0; }

  /// Appends one entry. Precondition: !full(). The returned pointer is
  /// stable for the lifetime of the chunk (capacity is reserved up front).
  Entry* Append(PendingTx tx) {
    assert(!full());
    entries_.push_back(Entry{std::move(tx), /*dead=*/false});
    ++live_count_;
    return &entries_.back();
  }

  /// Tombstones a live entry of this chunk.
  void MarkDead(Entry* entry) {
    assert(!entry->dead);
    entry->dead = true;
    assert(live_count_ > 0);
    --live_count_;
  }

 private:
  const size_t capacity_;
  std::vector<Entry> entries_;
  size_t live_count_ = 0;
};

}  // namespace txallo::mempool
