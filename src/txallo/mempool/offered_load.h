// Open-loop offered-load generator: releases a ledger's transaction stream
// at a target rate against the engine's *logical* clock.
//
// Closed-loop driving (feed a block, wait for it to finish) can never
// overload the system — arrival rate automatically tracks service rate, so
// queueing delay stays invisible. Open-loop driving fixes the arrival rate
// regardless of progress: each tick the generator releases
// floor-accumulated `txs_per_tick` transactions (credit carries across
// ticks, so a rate of 2.5 releases 2,3,2,3,...), and whatever the engine
// cannot keep up with piles into the mempool, where admission control and
// the latency histograms make the overload measurable.
//
// Everything is a pure function of (ledger, config): the release schedule
// comes from the tick counter and the fee of transaction i from a SplitMix64
// hash of (fee_seed, i) — no wall clock, no RNG state shared across
// threads — so two runs with any thread counts offer byte-identical
// streams.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/chain/ledger.h"
#include "txallo/chain/transaction.h"

namespace txallo::mempool {

struct OfferedLoadConfig {
  /// Target arrival rate, transactions per engine tick. May be fractional.
  double txs_per_tick = 8.0;
  /// Fees are drawn uniformly (by hash) from {1, ..., fee_levels}; 1 makes
  /// every fee equal, exercising the pure seq tie-break.
  uint32_t fee_levels = 16;
  uint64_t fee_seed = 0x9e3779b97f4a7c15ULL;
};

/// One released arrival: a view into the generator's flattened stream plus
/// its deterministic priority fee.
struct OfferedTx {
  const chain::Transaction* tx;
  uint64_t fee;
};

class OfferedLoadGenerator {
 public:
  /// Flattens `ledger` (copies its transactions; the ledger may go away).
  OfferedLoadGenerator(const chain::Ledger& ledger, OfferedLoadConfig config);

  /// Appends this tick's arrivals to `out` and returns how many were
  /// released. Call exactly once per tick; the fractional-credit carry is
  /// part of the deterministic schedule. Pointers stay valid for the
  /// generator's lifetime.
  size_t ReleaseTick(std::vector<OfferedTx>* out);

  /// True once the whole stream has been released.
  bool Done() const { return cursor_ >= transactions_.size(); }

  /// Transactions released so far.
  uint64_t released() const { return cursor_; }

  uint64_t total() const { return transactions_.size(); }

  /// The deterministic fee of stream position `index` (exposed for tests).
  uint64_t FeeFor(uint64_t index) const;

 private:
  const OfferedLoadConfig config_;
  std::vector<chain::Transaction> transactions_;
  uint64_t cursor_ = 0;
  double credit_ = 0.0;
};

}  // namespace txallo::mempool
