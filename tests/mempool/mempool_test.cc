// Mempool unit tests: seal/dispatch ordering, every admission-control
// check and policy, staging backpressure (TrySubmit rejecting at the door),
// TTL expiry, and physical compaction (direct and at the seal) being
// logically invisible, also with the MempoolCleaner shim attached.
#include "txallo/mempool/mempool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/mempool/cleaner.h"
#include "txallo/mempool/offered_load.h"

namespace txallo::mempool {
namespace {

chain::Transaction Tx(chain::AccountId from, chain::AccountId to) {
  return chain::Transaction::Simple(from, to);
}

// Submits with explicit tags; payer (admission identity) is `from`.
void Put(Mempool& pool, uint64_t seq, uint64_t fee, chain::AccountId from = 1,
         uint64_t tick = 0) {
  ASSERT_TRUE(pool.TrySubmit(Tx(from, from + 100), fee, tick, seq));
}

std::vector<uint64_t> Seqs(const std::vector<PendingTx>& batch) {
  std::vector<uint64_t> seqs;
  for (const PendingTx& tx : batch) seqs.push_back(tx.pool_seq);
  return seqs;
}

TEST(MempoolTest, DispatchOrderIsFeeDescThenSeqAsc) {
  Mempool pool(MempoolConfig{});
  Put(pool, 0, 5);
  Put(pool, 1, 9);
  Put(pool, 2, 5);
  Put(pool, 3, 9);
  Put(pool, 4, 1);
  EXPECT_EQ(pool.SealTick(0), 5u);
  EXPECT_EQ(Seqs(pool.TakeBatch(100)),
            (std::vector<uint64_t>{1, 3, 0, 2, 4}));
  EXPECT_EQ(pool.live_size(), 0u);
}

TEST(MempoolTest, DispatchOrderIgnoresSubmissionInterleaving) {
  // The same five arrivals staged in two different orders dispatch
  // identically: pool_seq, not staging order, is the tie-break.
  std::vector<uint64_t> first;
  {
    Mempool pool(MempoolConfig{});
    for (uint64_t seq : {4, 0, 3, 1, 2}) Put(pool, seq, 7);
    pool.SealTick(0);
    first = Seqs(pool.TakeBatch(100));
  }
  Mempool pool(MempoolConfig{});
  for (uint64_t seq : {0, 1, 2, 3, 4}) Put(pool, seq, 7);
  pool.SealTick(0);
  EXPECT_EQ(Seqs(pool.TakeBatch(100)), first);
  EXPECT_EQ(first, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(MempoolTest, TakeBatchHonorsLimitAndLeavesRestLive) {
  Mempool pool(MempoolConfig{});
  for (uint64_t seq = 0; seq < 6; ++seq) Put(pool, seq, 10 - seq);
  pool.SealTick(0);
  EXPECT_EQ(Seqs(pool.TakeBatch(2)), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(pool.live_size(), 4u);
  EXPECT_EQ(Seqs(pool.TakeBatch(100)), (std::vector<uint64_t>{2, 3, 4, 5}));
}

TEST(MempoolTest, CapacityBoundDropsLateArrivals) {
  MempoolConfig config;
  config.capacity = 3;
  Mempool pool(config);
  for (uint64_t seq = 0; seq < 5; ++seq) Put(pool, seq, seq + 1, 1 + seq);
  EXPECT_EQ(pool.SealTick(0), 3u);
  EXPECT_EQ(pool.live_size(), 3u);
  EXPECT_EQ(pool.stats().dropped_capacity, 2u);
  // Admission walks arrivals in seq order, so the first three got in;
  // dispatch then orders those by fee descending.
  EXPECT_EQ(Seqs(pool.TakeBatch(100)), (std::vector<uint64_t>{2, 1, 0}));
}

TEST(MempoolTest, PerAccountPendingLimit) {
  MempoolConfig config;
  config.account_pending_limit = 2;
  Mempool pool(config);
  for (uint64_t seq = 0; seq < 4; ++seq) Put(pool, seq, 5, /*from=*/7);
  Put(pool, 4, 5, /*from=*/8);
  EXPECT_EQ(pool.SealTick(0), 3u);
  EXPECT_EQ(pool.stats().dropped_account_pending, 2u);
  // Dispatch frees the payer's slots for the next seal.
  pool.TakeBatch(100);
  Put(pool, 5, 5, /*from=*/7);
  EXPECT_EQ(pool.SealTick(1), 1u);
}

TEST(MempoolTest, PerAccountRateLimitResetsEachTick) {
  MempoolConfig config;
  config.account_rate_limit = 1;
  Mempool pool(config);
  Put(pool, 0, 5, /*from=*/7);
  Put(pool, 1, 5, /*from=*/7);
  EXPECT_EQ(pool.SealTick(0), 1u);
  EXPECT_EQ(pool.stats().dropped_account_rate, 1u);
  // Same account next tick: the per-tick rate budget is fresh.
  Put(pool, 2, 5, /*from=*/7);
  EXPECT_EQ(pool.SealTick(1), 1u);
}

TEST(MempoolTest, BlockPolicyDefersAndRetriesAheadOfNewerArrivals) {
  MempoolConfig config;
  config.capacity = 2;
  config.policy = AdmissionPolicy::kBlock;
  Mempool pool(config);
  for (uint64_t seq = 0; seq < 4; ++seq) Put(pool, seq, 9 - seq, 1 + seq);
  EXPECT_EQ(pool.SealTick(0), 2u);
  EXPECT_EQ(pool.deferred_size(), 2u);
  EXPECT_EQ(pool.stats().deferred, 2u);
  AdmissionStats stats = pool.stats();
  EXPECT_EQ(stats.dropped_capacity + stats.dropped_account_pending +
                stats.dropped_account_rate,
            0u);
  // Drain the pool; the deferred pair (seqs 2,3) admits at the next seal,
  // ahead of a newer arrival that no longer fits.
  pool.TakeBatch(100);
  Put(pool, 4, 9, /*from=*/9);
  EXPECT_EQ(pool.SealTick(1), 2u);
  EXPECT_EQ(Seqs(pool.TakeBatch(100)), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(pool.deferred_size(), 1u);
}

TEST(MempoolTest, TtlExpiresStaleEntriesAtSeal) {
  MempoolConfig config;
  config.ttl_ticks = 2;
  Mempool pool(config);
  Put(pool, 0, 5, 1, /*tick=*/0);
  pool.SealTick(0);  // admit_tick = 0
  EXPECT_EQ(pool.live_size(), 1u);
  pool.SealTick(1);
  EXPECT_EQ(pool.live_size(), 1u);
  pool.SealTick(3);  // age 3 > ttl 2
  EXPECT_EQ(pool.live_size(), 0u);
  EXPECT_EQ(pool.stats().expired, 1u);
  EXPECT_TRUE(pool.TakeBatch(100).empty());
}

TEST(MempoolTest, TimestampsRecordSubmitAndAdmitTicks) {
  Mempool pool(MempoolConfig{});
  Put(pool, 0, 5, 1, /*tick=*/4);
  pool.SealTick(7);
  std::vector<PendingTx> batch = pool.TakeBatch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].submit_tick, 4u);
  EXPECT_EQ(batch[0].admit_tick, 7u);
}

TEST(MempoolTest, TrySubmitBackpressureWhenStagingFull) {
  MempoolConfig config;
  config.staging_capacity = 2;
  Mempool pool(config);
  EXPECT_TRUE(pool.TrySubmit(Tx(1, 2), 5, 0, 0));
  EXPECT_TRUE(pool.TrySubmit(Tx(1, 2), 5, 0, 1));
  EXPECT_FALSE(pool.TrySubmit(Tx(1, 2), 5, 0, 2));
  EXPECT_EQ(pool.stats().dropped_backpressure, 1u);
  EXPECT_EQ(pool.stats().submitted, 3u);
  // Sealing makes room again.
  pool.SealTick(0);
  EXPECT_TRUE(pool.TrySubmit(Tx(1, 2), 5, 1, 3));
}

TEST(MempoolTest, DroppedSumsAdmissionDropsButNotExpiries) {
  AdmissionStats stats;
  stats.dropped_capacity = 1;
  stats.dropped_account_pending = 2;
  stats.dropped_account_rate = 4;
  stats.dropped_backpressure = 8;
  stats.expired = 16;
  stats.deferred = 32;
  EXPECT_EQ(stats.dropped(), 15u);
}

TEST(MempoolTest, ReserveSequenceRangeIsContiguous) {
  Mempool pool(MempoolConfig{});
  EXPECT_EQ(pool.ReserveSequenceRange(4), 0u);
  EXPECT_EQ(pool.ReserveSequenceRange(1), 4u);
  EXPECT_EQ(pool.ReserveSequenceRange(3), 5u);
}

TEST(MempoolTest, CompactionReclaimsOnlyFullyDeadChunksAndChangesNothing) {
  MempoolConfig config;
  config.chunk_size = 4;
  Mempool pool(config);
  for (uint64_t seq = 0; seq < 8; ++seq) Put(pool, seq, 1 + seq % 3);
  pool.SealTick(0);
  // Dispatch six of eight: the first chunk (seqs of the four best... by
  // storage order, not priority) may or may not be fully dead — assert via
  // the pool's own accounting instead of guessing.
  pool.TakeBatch(6);
  const size_t dead_before = pool.dead_count();
  EXPECT_EQ(dead_before, 6u);
  const size_t reclaimed = pool.CompactOnce();
  // Whatever was reclaimed, the live transactions are untouched.
  EXPECT_EQ(pool.live_size(), 2u);
  EXPECT_EQ(pool.dead_count(), dead_before - 4 * reclaimed);
  std::vector<PendingTx> rest = pool.TakeBatch(100);
  EXPECT_EQ(rest.size(), 2u);
  // Now every entry is dead: both chunks are reclaimable wholesale.
  EXPECT_EQ(pool.CompactOnce(), 2u - reclaimed);
  EXPECT_EQ(pool.dead_count(), 0u);
}

// The compaction a cleaner hook was once handed at the threshold now runs
// inside SealTick, on the driver, where the pool holds no lock: it fires at
// the first seal that finds `dead_compact_threshold` tombstones, not before.
TEST(MempoolTest, CleanerHookFiresAtThresholdOutsideLocks) {
  MempoolConfig config;
  config.chunk_size = 2;
  config.dead_compact_threshold = 3;
  Mempool pool(config);
  for (uint64_t seq = 0; seq < 4; ++seq) Put(pool, seq, 5);
  pool.SealTick(0);
  pool.TakeBatch(2);
  pool.SealTick(1);
  // Two tombstones, below the threshold: the seal left them in place.
  EXPECT_EQ(pool.dead_count(), 2u);
  pool.TakeBatch(2);
  // Dispatch alone never compacts; the next seal does.
  EXPECT_EQ(pool.dead_count(), 4u);
  pool.SealTick(2);
  EXPECT_EQ(pool.dead_count(), 0u);
  EXPECT_EQ(pool.live_size(), 0u);
  EXPECT_EQ(pool.CompactOnce(), 0u);
}

// MempoolCleaner is a no-op shim now; a pool with one attached still
// reclaims, at the seal, and dispatches exactly what a pool that never
// compacts dispatches.
TEST(MempoolCleanerTest, BackgroundCleanerReclaimsWithoutChangingOutputs) {
  MempoolConfig config;
  config.chunk_size = 2;
  config.dead_compact_threshold = 2;
  Mempool pool(config);
  MempoolCleaner cleaner(&pool);
  config.dead_compact_threshold = SIZE_MAX;
  Mempool reference(config);
  for (uint64_t round = 0; round < 50; ++round) {
    for (Mempool* p : {&pool, &reference}) {
      for (uint64_t i = 0; i < 4; ++i) Put(*p, round * 4 + i, 1 + i);
      p->SealTick(round);
    }
    // Every chunk the previous round killed is gone by this seal.
    EXPECT_EQ(pool.dead_count(), 0u) << round;
    const std::vector<PendingTx> batch = pool.TakeBatch(100);
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(Seqs(batch), Seqs(reference.TakeBatch(100))) << round;
  }
  pool.SealTick(50);
  EXPECT_EQ(pool.dead_count(), 0u);
  EXPECT_EQ(pool.live_size(), 0u);
  EXPECT_EQ(pool.stats(), reference.stats());
  EXPECT_EQ(pool.stats().admitted, 200u);
  // The reference kept all 200 tombstones in 100 fully-dead chunks.
  EXPECT_EQ(reference.dead_count(), 200u);
  EXPECT_EQ(reference.CompactOnce(), 100u);
}

TEST(MempoolTest, SealCompactionAtThresholdChangesNoOutput) {
  // One schedule through two pools: one compacts at every seal that finds
  // two dead entries, the other never does. The schedule fills the pool
  // past capacity (kBlock deferrals) and leaves entries to age out (TTL).
  MempoolConfig config;
  config.chunk_size = 2;
  config.capacity = 6;
  config.policy = AdmissionPolicy::kBlock;
  config.ttl_ticks = 2;
  config.dead_compact_threshold = 2;
  Mempool compacting(config);
  config.dead_compact_threshold = SIZE_MAX;
  Mempool reference(config);
  uint64_t dispatched = 0;
  for (uint64_t round = 0; round < 50; ++round) {
    for (Mempool* pool : {&compacting, &reference}) {
      for (uint64_t i = 0; i < 4; ++i) {
        Put(*pool, 4 * round + i, 1 + (7 * round + 3 * i) % 5,
            /*from=*/1 + (round + i) % 5, /*tick=*/round);
      }
      pool->SealTick(round);
    }
    // The seal already reclaimed every fully-dead chunk.
    EXPECT_EQ(compacting.CompactOnce(), 0u) << round;
    const std::vector<PendingTx> batch = compacting.TakeBatch(round % 3);
    EXPECT_EQ(Seqs(batch), Seqs(reference.TakeBatch(round % 3))) << round;
    dispatched += batch.size();
    EXPECT_EQ(compacting.stats(), reference.stats()) << round;
    EXPECT_EQ(compacting.live_size(), reference.live_size()) << round;
    EXPECT_EQ(compacting.deferred_size(), reference.deferred_size()) << round;
  }
  const AdmissionStats stats = reference.stats();
  EXPECT_GT(stats.deferred, 0u);
  EXPECT_GT(stats.expired, 0u);
  // The reference kept every tombstone. The compacting pool kept only those
  // sharing a two-entry chunk with a live entry, or in the unfilled last
  // chunk.
  EXPECT_EQ(reference.dead_count(), dispatched + stats.expired);
  EXPECT_LE(compacting.dead_count(), compacting.live_size() + 1);
  EXPECT_GT(reference.CompactOnce(), 0u);
}

TEST(OfferedLoadTest, FractionalCreditCarriesAcrossTicks) {
  chain::Ledger ledger;
  std::vector<chain::Transaction> txs;
  for (uint64_t i = 0; i < 10; ++i) txs.push_back(Tx(i + 1, i + 2));
  ASSERT_TRUE(ledger.Append(chain::Block(0, txs)).ok());

  OfferedLoadConfig config;
  config.txs_per_tick = 2.5;
  OfferedLoadGenerator generator(ledger, config);
  EXPECT_EQ(generator.total(), 10u);
  std::vector<OfferedTx> out;
  std::vector<size_t> per_tick;
  while (!generator.Done()) {
    out.clear();
    per_tick.push_back(generator.ReleaseTick(&out));
  }
  EXPECT_EQ(per_tick, (std::vector<size_t>{2, 3, 2, 3}));
  EXPECT_EQ(generator.released(), 10u);
}

TEST(OfferedLoadTest, FeesAreDeterministicAndWithinLevels) {
  chain::Ledger ledger;
  std::vector<chain::Transaction> txs;
  for (uint64_t i = 0; i < 64; ++i) txs.push_back(Tx(i + 1, i + 2));
  ASSERT_TRUE(ledger.Append(chain::Block(0, txs)).ok());

  OfferedLoadConfig config;
  config.txs_per_tick = 64.0;
  config.fee_levels = 4;
  OfferedLoadGenerator a(ledger, config);
  OfferedLoadGenerator b(ledger, config);
  std::vector<OfferedTx> out_a, out_b;
  a.ReleaseTick(&out_a);
  b.ReleaseTick(&out_b);
  ASSERT_EQ(out_a.size(), 64u);
  bool saw_distinct = false;
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].fee, out_b[i].fee);
    EXPECT_EQ(out_a[i].fee, a.FeeFor(i));
    EXPECT_GE(out_a[i].fee, 1u);
    EXPECT_LE(out_a[i].fee, 4u);
    if (out_a[i].fee != out_a[0].fee) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct);
  // fee_levels = 1 pins every fee to 1 (the pure seq tie-break case).
  config.fee_levels = 1;
  OfferedLoadGenerator flat(ledger, config);
  std::vector<OfferedTx> out_flat;
  flat.ReleaseTick(&out_flat);
  for (const OfferedTx& tx : out_flat) EXPECT_EQ(tx.fee, 1u);
}

}  // namespace
}  // namespace txallo::mempool
