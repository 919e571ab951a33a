// Mempool property test — serial-reference equivalence: for seeded random
// arrival schedules, the pool's admitted/dispatched stream and every
// counter match a ~40-line reference model of the admission spec (capacity
// bound, per-account pending limit, per-tick rate limit, fee-desc/seq-asc
// dispatch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/common/rng.h"
#include "txallo/mempool/mempool.h"

namespace txallo::mempool {
namespace {

struct Arrival {
  chain::Transaction tx;
  chain::AccountId payer;
  uint64_t fee;
};

struct Schedule {
  std::vector<std::vector<Arrival>> ticks;
  size_t dispatch_cap;
};

Schedule MakeSchedule(uint64_t seed, size_t num_ticks, size_t max_per_tick,
                      uint64_t num_accounts, uint64_t fee_levels,
                      size_t dispatch_cap) {
  Rng rng(seed);
  Schedule schedule;
  schedule.dispatch_cap = dispatch_cap;
  schedule.ticks.resize(num_ticks);
  for (auto& tick : schedule.ticks) {
    const size_t n = rng.NextBounded(max_per_tick + 1);
    for (size_t i = 0; i < n; ++i) {
      const chain::AccountId from =
          static_cast<chain::AccountId>(1 + rng.NextBounded(num_accounts));
      const chain::AccountId to =
          static_cast<chain::AccountId>(1 + rng.NextBounded(num_accounts));
      tick.push_back(Arrival{chain::Transaction::Simple(from, to), from,
                             1 + rng.NextBounded(fee_levels)});
    }
  }
  return schedule;
}

// The dispatched stream, flattened: one (fee, seq) pair per transaction in
// dispatch order, tick-delimited by (0, UINT64_MAX) markers so batches
// can't alias across ticks.
using Stream = std::vector<std::pair<uint64_t, uint64_t>>;

// Reference model of the admission spec, kReject policy, no TTL.
Stream ReferenceRun(const Schedule& schedule, const MempoolConfig& config,
                    AdmissionStats* stats_out) {
  struct Live {
    uint64_t fee;
    uint64_t seq;
    chain::AccountId payer;
  };
  std::vector<Live> live;
  std::map<chain::AccountId, uint32_t> pending;
  AdmissionStats stats;
  Stream stream;
  uint64_t next_seq = 0;
  for (const auto& tick : schedule.ticks) {
    std::map<chain::AccountId, uint32_t> rate;
    for (const Arrival& arrival : tick) {
      const uint64_t seq = next_seq++;
      ++stats.submitted;
      if (config.capacity > 0 && live.size() >= config.capacity) {
        ++stats.dropped_capacity;
      } else if (config.account_pending_limit > 0 &&
                 pending[arrival.payer] >= config.account_pending_limit) {
        ++stats.dropped_account_pending;
      } else if (config.account_rate_limit > 0 &&
                 rate[arrival.payer] >= config.account_rate_limit) {
        ++stats.dropped_account_rate;
      } else {
        ++stats.admitted;
        ++pending[arrival.payer];
        ++rate[arrival.payer];
        live.push_back(Live{arrival.fee, seq, arrival.payer});
      }
    }
    stats.peak_depth = std::max<uint64_t>(stats.peak_depth, live.size());
    std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.seq < b.seq;
    });
    const size_t take = std::min(schedule.dispatch_cap, live.size());
    for (size_t i = 0; i < take; ++i) {
      stream.emplace_back(live[i].fee, live[i].seq);
      --pending[live[i].payer];
    }
    live.erase(live.begin(), live.begin() + static_cast<long>(take));
    stream.emplace_back(0, UINT64_MAX);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return stream;
}

// Runs the schedule through a real Mempool.
Stream PoolRun(const Schedule& schedule, const MempoolConfig& config,
               AdmissionStats* stats_out) {
  Mempool pool(config);
  Stream stream;
  uint64_t tick_number = 0;
  for (const auto& tick : schedule.ticks) {
    const uint64_t seq_base = pool.ReserveSequenceRange(tick.size());
    for (size_t i = 0; i < tick.size(); ++i) {
      EXPECT_TRUE(pool.TrySubmit(tick[i].tx, tick[i].fee, tick_number,
                                 seq_base + i));
    }
    pool.SealTick(tick_number);
    for (const PendingTx& tx : pool.TakeBatch(schedule.dispatch_cap)) {
      stream.emplace_back(tx.fee, tx.pool_seq);
    }
    stream.emplace_back(0, UINT64_MAX);
    ++tick_number;
  }
  if (stats_out != nullptr) *stats_out = pool.stats();
  return stream;
}

TEST(MempoolPropertyTest, MatchesSerialReferenceAcrossRandomSchedules) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MempoolConfig config;
    // Vary the pressure: tight capacity on even seeds, account limits on
    // seeds divisible by 3, always a finite dispatch cap.
    config.capacity = (seed % 2 == 0) ? 48 : 1 << 12;
    config.account_pending_limit = (seed % 3 == 0) ? 3 : 0;
    config.account_rate_limit = (seed % 4 == 0) ? 2 : 0;
    config.staging_capacity = 256;
    const Schedule schedule =
        MakeSchedule(seed, /*num_ticks=*/40, /*max_per_tick=*/30,
                     /*num_accounts=*/12, /*fee_levels=*/5,
                     /*dispatch_cap=*/17);

    AdmissionStats expected_stats, actual_stats;
    const Stream expected = ReferenceRun(schedule, config, &expected_stats);
    const Stream actual = PoolRun(schedule, config, &actual_stats);
    ASSERT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(actual_stats, expected_stats) << "seed " << seed;
  }
}

}  // namespace
}  // namespace txallo::mempool
