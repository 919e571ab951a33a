// Mempool property tests.
//
// 1. Serial-reference equivalence: for seeded random arrival schedules, the
//    concurrent pool's admitted/dispatched stream and every driver-side
//    counter match a ~40-line single-threaded reference model of the
//    admission spec (capacity bound, per-account pending limit, per-tick
//    rate limit, fee-desc/seq-asc dispatch).
//
// 2. Producer-count independence: the same schedule pushed through a
//    SubmitRouter with 1, 2, 4 and 7 producer threads yields byte-identical
//    dispatch streams and identical AdmissionStats — the determinism claim
//    the open-loop pipeline is built on, exercised at the component level
//    with real thread interleavings (batches whose estimate reaches
//    common::kInlineWorkThreshold; smaller ones are offered inline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/common/fork_join.h"
#include "txallo/common/rng.h"
#include "txallo/mempool/mempool.h"
#include "txallo/mempool/submit_router.h"

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

// Runs the schedule through a real Mempool. `producers` = 0 submits
// directly from the driver thread; >= 1 pushes each tick through a
// SubmitRouter with that many producer threads.
Stream PoolRun(const Schedule& schedule, const MempoolConfig& config,
               uint32_t producers, AdmissionStats* stats_out) {
  Mempool pool(config);
  std::optional<SubmitRouter> router;
  if (producers >= 1) router.emplace(&pool, producers);
  Stream stream;
  uint64_t tick_number = 0;
  for (const auto& tick : schedule.ticks) {
    const uint64_t seq_base = pool.ReserveSequenceRange(tick.size());
    if (router.has_value()) {
      std::vector<chain::Transaction> txs;
      std::vector<uint64_t> fees;
      for (const Arrival& arrival : tick) {
        txs.push_back(arrival.tx);
        fees.push_back(arrival.fee);
      }
      EXPECT_EQ(router->SubmitBatch(txs.data(), fees.data(), txs.size(),
                                    tick_number, seq_base),
                txs.size());
    } else {
      for (size_t i = 0; i < tick.size(); ++i) {
        EXPECT_TRUE(pool.Submit(tick[i].tx, tick[i].fee, tick_number,
                                seq_base + i)
                        .ok());
      }
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
    const Stream actual = PoolRun(schedule, config, /*producers=*/0,
                                  &actual_stats);
    ASSERT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(actual_stats, expected_stats) << "seed " << seed;
  }
}

TEST(MempoolPropertyTest, DispatchStreamIndependentOfProducerCount) {
  MempoolConfig config;
  config.capacity = 96;
  config.account_pending_limit = 4;
  config.staging_capacity = 256;  // >= max batch: no timing-dependent drops
  const Schedule schedule =
      MakeSchedule(99, /*num_ticks=*/60, /*max_per_tick=*/40,
                   /*num_accounts=*/20, /*fee_levels=*/7,
                   /*dispatch_cap=*/23);

  AdmissionStats base_stats;
  const Stream base = PoolRun(schedule, config, /*producers=*/1, &base_stats);
  EXPECT_GT(base_stats.dropped_capacity + base_stats.dropped_account_pending,
            0u)
      << "schedule too gentle to exercise admission control";
  for (uint32_t producers : {2u, 4u, 7u}) {
    AdmissionStats stats;
    const Stream stream = PoolRun(schedule, config, producers, &stats);
    ASSERT_EQ(stream, base) << producers << " producers";
    EXPECT_EQ(stats, base_stats) << producers << " producers";
  }
  // And the threaded runs match the driver-thread-only submission path.
  AdmissionStats direct_stats;
  const Stream direct = PoolRun(schedule, config, /*producers=*/0,
                                &direct_stats);
  EXPECT_EQ(direct, base);
  EXPECT_EQ(direct_stats, base_stats);
}

TEST(MempoolPropertyTest, StreamMatchesReferenceOnBothSidesOfInlineThreshold) {
  // Batches up to twice the size from which the router fans out: the
  // smaller ones are offered inline on the driver, the larger ones fan out
  // to the router's helpers, and both must dispatch exactly what the
  // serial reference does.
  constexpr size_t kThreshold =
      (common::kInlineWorkThreshold + SubmitRouter::kItemsPerRoutedTx - 1) /
      SubmitRouter::kItemsPerRoutedTx;
  MempoolConfig config;
  config.capacity = 3 * kThreshold / 2;
  config.account_pending_limit = 64;
  config.staging_capacity = 2 * kThreshold;  // >= max batch
  const Schedule schedule =
      MakeSchedule(2024, /*num_ticks=*/12, /*max_per_tick=*/2 * kThreshold,
                   /*num_accounts=*/400, /*fee_levels=*/9,
                   /*dispatch_cap=*/kThreshold / 2);
  size_t fanned_out = 0;
  for (const auto& tick : schedule.ticks) {
    if (tick.size() >= kThreshold) ++fanned_out;
  }
  ASSERT_GT(fanned_out, 0u) << "no batch reaches the threshold";
  ASSERT_LT(fanned_out, schedule.ticks.size()) << "every batch fans out";

  AdmissionStats expected_stats;
  const Stream expected = ReferenceRun(schedule, config, &expected_stats);
  EXPECT_GT(expected_stats.dropped_capacity, 0u);
  for (uint32_t producers : {2u, 4u}) {
    AdmissionStats stats;
    const Stream stream = PoolRun(schedule, config, producers, &stats);
    ASSERT_EQ(stream, expected) << producers << " producers";
    EXPECT_EQ(stats, expected_stats) << producers << " producers";
  }
}

TEST(MempoolPropertyTest, BlockPolicyStreamIndependentOfProducerCount) {
  MempoolConfig config;
  config.capacity = 32;
  config.policy = AdmissionPolicy::kBlock;
  config.staging_capacity = 256;
  const Schedule schedule =
      MakeSchedule(7, /*num_ticks=*/50, /*max_per_tick=*/24,
                   /*num_accounts=*/10, /*fee_levels=*/4,
                   /*dispatch_cap=*/9);

  AdmissionStats base_stats;
  const Stream base = PoolRun(schedule, config, /*producers=*/1, &base_stats);
  EXPECT_GT(base_stats.deferred, 0u)
      << "schedule too gentle to exercise deferral";
  for (uint32_t producers : {3u, 6u}) {
    AdmissionStats stats;
    const Stream stream = PoolRun(schedule, config, producers, &stats);
    ASSERT_EQ(stream, base) << producers << " producers";
    EXPECT_EQ(stats, base_stats) << producers << " producers";
  }
}

}  // namespace
}  // namespace txallo::mempool
