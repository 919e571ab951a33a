// Mempool with admission control, sitting between the offered load and the
// engine's ingest.
//
// Two stages, both driven by one thread (the driver), which owns every
// structure here — so nothing is locked:
//
//   * Staging: TrySubmit() appends an arrival to a bounded staging buffer,
//     or returns false when the buffer is full (backpressure, policy
//     "reject at the door"). Each arrival carries a pool sequence number
//     the driver reserved up front (ReserveSequenceRange), like the
//     engine's ingest tags.
//
//   * Admission: once per tick the driver calls SealTick(), which drains
//     staging, orders arrivals by pool_seq — so everything downstream
//     depends on the tags, not on submission order — and runs admission
//     control: capacity bound, per-account pending limit, and per-account
//     per-tick rate limit. Rejected arrivals are dropped with
//     per-reason counters (AdmissionPolicy::kReject) or deferred to a FIFO
//     retried at the next seal (AdmissionPolicy::kBlock; the deferral queue
//     is bounded by the pool capacity, beyond which even kBlock sheds load —
//     unbounded buffering would just hide the overload the open-loop bench
//     exists to measure). TakeBatch() then dispatches the fee-priority
//     prefix of the pool to the engine.
//
// Ordering: dispatch order is (fee descending, pool_seq ascending) — highest
// bid first, FIFO within a bid. Both keys are fixed at submission, so the
// dispatched stream, every admission counter, and every latency histogram
// downstream are bit-identical across engine thread counts and whether
// compaction runs or not. tests/mempool/ pins this against a serial
// reference.
//
// Storage is chunked (chunk.h): append-only slabs, tombstone removal, and
// wholesale reclamation of fully-dead chunks (CompactOnce), which the seal
// runs once `dead_compact_threshold` tombstones accumulate — the speedex
// `mempool_cleaner` shape, on the driver. Compaction is physically
// observable but logically invisible: it frees only chunks whose every
// entry is already dead.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/chain/transaction.h"
#include "txallo/mempool/chunk.h"

namespace txallo::mempool {

/// What admission control does with an arrival that fails a check.
enum class AdmissionPolicy : uint8_t {
  /// Drop it immediately, counted by failure reason.
  kReject = 0,
  /// Defer it and retry at the next seal, FIFO, ahead of newer arrivals.
  /// The deferral queue is bounded by `capacity`; once it is full even
  /// kBlock sheds load, dropping with the failing reason's counter —
  /// unbounded buffering would just hide the overload the open-loop bench
  /// exists to measure.
  kBlock = 1,
};

struct MempoolConfig {
  /// Maximum live (admitted, undispatched) transactions. 0 = unlimited.
  size_t capacity = 1 << 16;
  /// Staging bound: TrySubmit() fails when this many arrivals await the
  /// next seal. Must be >= 1.
  size_t staging_capacity = 1 << 12;
  /// Max live transactions per paying account. 0 = unlimited.
  uint32_t account_pending_limit = 0;
  /// Max admissions per paying account per tick. 0 = unlimited.
  uint32_t account_rate_limit = 0;
  /// Live transactions older than this many ticks (since admission) expire
  /// at the next seal. 0 = never expire.
  uint64_t ttl_ticks = 0;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  /// Entries per storage chunk.
  size_t chunk_size = 512;
  /// SealTick() compacts once this many dead entries accumulate
  /// (SIZE_MAX = never).
  size_t dead_compact_threshold = 2048;
};

/// Monotonic admission counters, deterministic for a deterministic arrival
/// order. `submitted` and `dropped_backpressure` count TrySubmit calls; the
/// rest are updated at the seal.
struct AdmissionStats {
  /// TrySubmit calls, successful or not.
  uint64_t submitted = 0;
  /// TrySubmit calls refused because staging was full.
  uint64_t dropped_backpressure = 0;
  /// Arrivals accepted into the pool.
  uint64_t admitted = 0;
  uint64_t dropped_capacity = 0;
  uint64_t dropped_account_pending = 0;
  uint64_t dropped_account_rate = 0;
  /// Arrivals deferred at least once (kBlock policy).
  uint64_t deferred = 0;
  /// Live transactions expired by TTL.
  uint64_t expired = 0;
  /// High-water mark of live pool depth, sampled at each seal.
  uint64_t peak_depth = 0;

  /// Admission drops: capacity + per-account pending + per-account rate +
  /// staging backpressure. TTL expiries are not counted: they are a
  /// lifetime property of already-admitted transactions, not an admission
  /// decision.
  uint64_t dropped() const {
    return dropped_capacity + dropped_account_pending + dropped_account_rate +
           dropped_backpressure;
  }

  bool operator==(const AdmissionStats&) const = default;
};

class Mempool {
 public:
  explicit Mempool(MempoolConfig config);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  const MempoolConfig& config() const { return config_; }

  /// Reserves `count` consecutive pool sequence numbers and returns the
  /// first. Driver-side; the driver reserves one range per tick and tags
  /// its arrivals from it.
  uint64_t ReserveSequenceRange(size_t count) {
    const uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  /// Driver-side: stages an arrival for the next seal. False when staging
  /// is full (counted as a backpressure drop).
  bool TrySubmit(chain::Transaction tx, uint64_t fee, uint64_t submit_tick,
                 uint64_t pool_seq);

  /// Driver-side, once per tick: drains staging (sorted by pool_seq),
  /// retries deferred arrivals, expires TTL-stale entries, and runs
  /// admission control at tick `tick`; then compacts when dead_count()
  /// has reached `dead_compact_threshold`. Returns the number admitted.
  size_t SealTick(uint64_t tick);

  /// Driver-side: removes and returns up to `max_txs` live transactions in
  /// dispatch order (fee descending, pool_seq ascending).
  std::vector<PendingTx> TakeBatch(size_t max_txs);

  /// Admitted, undispatched, unexpired transactions.
  size_t live_size() const { return live_by_seq_.size(); }
  /// Arrivals awaiting the next seal (staging only, not deferrals).
  size_t staged_size() const { return staging_.size(); }
  /// Deferred arrivals awaiting retry (kBlock policy).
  size_t deferred_size() const { return overflow_.size(); }
  /// Tombstoned entries not yet physically reclaimed.
  size_t dead_count() const { return dead_count_; }

  AdmissionStats stats() const;

  /// One physical compaction pass, in place: reclaims every chunk whose
  /// entries are all dead. Logically invisible — any call, or none, leaves
  /// every output unchanged. Returns chunks reclaimed.
  size_t CompactOnce();

 private:
  /// A live entry and the chunk that owns it (needed to keep the chunk's
  /// live count in step when tombstoning).
  struct LiveRef {
    MempoolChunk* chunk;
    MempoolChunk::Entry* entry;
  };

  /// Admission outcome for one candidate; updates counters/structures.
  /// Returns true when admitted.
  bool Admit(PendingTx&& tx, uint64_t tick,
             std::map<chain::AccountId, uint32_t>& rate_this_tick,
             std::deque<PendingTx>& still_deferred);

  /// Tombstones a live entry: chunk live count, per-account pending count,
  /// dead count. Caller erases it from live_by_seq_.
  void Kill(const LiveRef& ref);

  /// Paying account: first input (the fee payer), falling back to the
  /// first distinct account for input-less transactions.
  static chain::AccountId PayerOf(const chain::Transaction& tx);

  const MempoolConfig config_;

  // ---- Staging --------------------------------------------------------------
  uint64_t next_seq_ = 0;
  std::vector<PendingTx> staging_;
  uint64_t submitted_ = 0;
  uint64_t dropped_backpressure_ = 0;

  // ---- Admitted pool -------------------------------------------------------
  std::vector<std::unique_ptr<MempoolChunk>> chunks_;
  /// Live entries by pool_seq; erased on dispatch/expiry. std::map for
  /// deterministic iteration (the determinism lint forbids unordered
  /// containers here).
  std::map<uint64_t, LiveRef> live_by_seq_;
  /// Priority index over live entries, sorted worst-first so the best
  /// (highest fee, lowest seq) pops from the back. Entries whose seq is no
  /// longer live are tombstones, skipped lazily at TakeBatch.
  struct PriorityKey {
    uint64_t fee;
    uint64_t seq;
  };
  /// Worst-first comparator: ascending fee, descending seq within a fee.
  static bool WorsePriority(const PriorityKey& a, const PriorityKey& b) {
    if (a.fee != b.fee) return a.fee < b.fee;
    return a.seq > b.seq;
  }
  std::vector<PriorityKey> index_;
  /// kBlock deferrals, FIFO, retried ahead of new arrivals each seal.
  std::deque<PendingTx> overflow_;
  std::map<chain::AccountId, uint32_t> pending_per_account_;
  size_t dead_count_ = 0;
  AdmissionStats stats_;
};

}  // namespace txallo::mempool
