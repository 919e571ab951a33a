// Multi-producer submit fan-out for the mempool: the batch the driver
// offers per tick, split into contiguous slices over a common::ForkJoinPool
// of N producer lanes (lane 0 is the calling driver thread) — the same
// slicing loop as engine::IngestRouter.
//
// Determinism: the driver reserves the batch's pool sequence range once
// (Mempool::ReserveSequenceRange) and every lane submits its slice with
// explicit tags — transaction i of the batch always carries seq base + i,
// whatever the lane interleaving. Since the pool orders each seal by seq,
// the admitted stream is byte-identical to the single-producer path.
//
// Lanes use TrySubmit (non-blocking): an arrival refused by a full staging
// buffer is an open-loop loss, counted by the pool as a backpressure drop.
// Note that *which* arrivals hit a full buffer depends on thread timing — a
// deterministic open-loop run must size staging to hold a whole tick's
// offer (the pipeline does; see pipeline.cc), so the buffer never fills and
// every drop decision moves to the seal, which is deterministic. Blocking
// Submit() is exercised directly by the unit tests with an independent
// sealing thread; it cannot be used here because the driver seals only
// after SubmitBatch returns.
#pragma once

#include <cstdint>

#include "txallo/chain/transaction.h"
#include "txallo/common/fork_join.h"
#include "txallo/mempool/mempool.h"

namespace txallo::mempool {

class SubmitRouter {
 public:
  /// Submits through `num_producers` (clamped to >= 1) lanes into `pool`,
  /// which must outlive the router.
  SubmitRouter(Mempool* pool, uint32_t num_producers);

  SubmitRouter(const SubmitRouter&) = delete;
  SubmitRouter& operator=(const SubmitRouter&) = delete;

  /// Splits `count` transactions (with parallel `fees`) into contiguous
  /// slices, one per producer lane; transaction i is TrySubmit-ted with
  /// sequence tag `seq_base + i` at tick `submit_tick`. Blocks until every
  /// slice is offered; returns how many the staging buffer accepted. One
  /// caller at a time (the driver).
  size_t SubmitBatch(const chain::Transaction* transactions,
                     const uint64_t* fees, size_t count, uint64_t submit_tick,
                     uint64_t seq_base);

  uint32_t num_producers() const { return lanes_.lanes(); }

 private:
  Mempool* const pool_;
  common::ForkJoinPool lanes_;
};

}  // namespace txallo::mempool
