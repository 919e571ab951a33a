// Submit router shim: offers a batch to the mempool in a plain loop,
// transaction i with pool sequence tag `seq_base + i`.
//
// The mempool has one producer, the driver (see mempool.h), so a batch has
// nothing to fan out over. The class stays only because the perf ledger's
// traced driver (bench/perf/traced_pipeline.cc) still constructs it; it
// goes together with that driver copy.
#pragma once

#include <cstddef>
#include <cstdint>

#include "txallo/chain/transaction.h"
#include "txallo/mempool/mempool.h"

namespace txallo::mempool {

class SubmitRouter {
 public:
  /// Offers into `pool`, which must outlive the router. The producer count
  /// is ignored.
  SubmitRouter(Mempool* pool, uint32_t /*num_producers*/) : pool_(pool) {}

  SubmitRouter(const SubmitRouter&) = delete;
  SubmitRouter& operator=(const SubmitRouter&) = delete;

  /// TrySubmit-s each of `count` transactions (with parallel `fees`) at
  /// tick `submit_tick`, transaction i with tag `seq_base + i`; returns
  /// how many the staging buffer accepted.
  size_t SubmitBatch(const chain::Transaction* transactions,
                     const uint64_t* fees, size_t count, uint64_t submit_tick,
                     uint64_t seq_base) {
    size_t accepted = 0;
    for (size_t i = 0; i < count; ++i) {
      if (pool_->TrySubmit(transactions[i], fees[i], submit_tick,
                           seq_base + i)) {
        ++accepted;
      }
    }
    return accepted;
  }

 private:
  Mempool* const pool_;
};

}  // namespace txallo::mempool
