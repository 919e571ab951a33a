// Multi-producer ingest: the IngestRouter fanning one block across N
// producer lanes into the engine's per-shard staging buffers. The stress
// tests are what the TSan CI job runs — routing reads, 2PC registration and
// staging pushes all race across producers by design. Blocks whose
// estimate is below common::kInlineWorkThreshold route inline, so the
// concurrent-install case submits blocks at the threshold to race them.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "txallo/engine/engine.h"
#include "txallo/engine/ingest_router.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

std::shared_ptr<const alloc::Allocation> RoundRobin(size_t accounts,
                                                    uint32_t k) {
  auto allocation = std::make_shared<alloc::Allocation>(accounts, k);
  for (size_t a = 0; a < accounts; ++a) {
    allocation->Assign(static_cast<chain::AccountId>(a),
                       static_cast<alloc::ShardId>(a % k));
  }
  return allocation;
}

chain::Ledger DriftingLedger(uint64_t blocks, uint64_t txs_per_block,
                             uint64_t accounts, uint64_t seed) {
  workload::EthereumLikeConfig config;
  config.num_blocks = blocks;
  config.txs_per_block = txs_per_block;
  config.num_accounts = accounts;
  config.num_communities = 16;
  config.seed = seed;
  workload::EthereumLikeGenerator generator(config);
  return generator.GenerateLedger(blocks);
}

engine::EngineReport RunLedger(const chain::Ledger& ledger, uint32_t k,
                               uint32_t engine_threads, uint32_t producers,
                               double capacity) {
  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = engine_threads;
  config.work.capacity_per_block = capacity;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, RoundRobin(2'000, k));
  std::optional<engine::IngestRouter> router;
  if (producers >= 2) router.emplace(&engine, producers);
  for (const chain::Block& block : ledger.blocks()) {
    Status status = router ? router->SubmitBlock(block.transactions())
                           : engine.SubmitBlock(block.transactions());
    EXPECT_TRUE(status.ok()) << status.ToString();
    engine.Tick();
  }
  return engine.DrainAndReport();
}

TEST(IngestRouterTest, StressTotalsMatchSingleDriverUnderTightCapacity) {
  // Tight λ: per-lane FIFO order differs across producer interleavings, so
  // only order-insensitive totals are pinned. 4 producers × 2 engine
  // workers is the TSan surface.
  const chain::Ledger ledger = DriftingLedger(40, 80, 2'000, 17);
  const engine::EngineReport single = RunLedger(ledger, 4, 2, 0, 30.0);
  const engine::EngineReport routed = RunLedger(ledger, 4, 2, 4, 30.0);
  EXPECT_EQ(routed.sim.submitted, single.sim.submitted);
  EXPECT_EQ(routed.sim.committed, single.sim.committed);
  EXPECT_EQ(routed.sim.cross_shard_submitted,
            single.sim.cross_shard_submitted);
  EXPECT_EQ(routed.sim.submitted, ledger.num_transactions());
  EXPECT_EQ(routed.sim.committed, ledger.num_transactions());
  EXPECT_DOUBLE_EQ(routed.sim.residual_work, 0.0);
}

TEST(IngestRouterTest, AmpleCapacityYieldsIdenticalLogicalBlockMetrics) {
  // With λ large enough that every block drains within its tick, intra-
  // block order is immaterial and the whole logical-block report matches
  // the single-driver path exactly — the acceptance bar for lifting the
  // single-producer contract.
  const chain::Ledger ledger = DriftingLedger(30, 60, 1'500, 23);
  const engine::EngineReport single = RunLedger(ledger, 4, 2, 0, 10'000.0);
  const engine::EngineReport routed = RunLedger(ledger, 4, 2, 3, 10'000.0);
  EXPECT_EQ(routed.sim.submitted, single.sim.submitted);
  EXPECT_EQ(routed.sim.committed, single.sim.committed);
  EXPECT_EQ(routed.sim.cross_shard_submitted,
            single.sim.cross_shard_submitted);
  EXPECT_EQ(routed.sim.blocks_elapsed, single.sim.blocks_elapsed);
  EXPECT_DOUBLE_EQ(routed.sim.avg_latency_blocks,
                   single.sim.avg_latency_blocks);
  EXPECT_DOUBLE_EQ(routed.sim.max_latency_blocks,
                   single.sim.max_latency_blocks);
  EXPECT_EQ(routed.cross_shard_committed, single.cross_shard_committed);
  EXPECT_EQ(routed.prepares_received, single.prepares_received);
  EXPECT_EQ(routed.max_queue_depth, single.max_queue_depth);
}

TEST(IngestRouterTest, MoreProducersThanTransactionsHandlesEmptySlices) {
  engine::EngineConfig config;
  config.num_shards = 2;
  config.work.capacity_per_block = 100.0;
  engine::ParallelEngine engine(config, RoundRobin(8, 2));
  engine::IngestRouter router(&engine, 8);
  EXPECT_EQ(router.num_producers(), 8u);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1),
                                      chain::Transaction::Simple(2, 3)};
  ASSERT_TRUE(router.SubmitBlock(txs).ok());
  engine.Tick();
  // An empty block is fine too.
  ASSERT_TRUE(router.SubmitBlock({}).ok());
  engine.Tick();
  const engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted, 2u);
  EXPECT_EQ(report.sim.committed, 2u);
}

TEST(IngestRouterTest, ProducerErrorsSurfaceToTheCaller) {
  // No snapshot installed: every producer's SubmitTransactions fails; the
  // router must report it rather than swallow it.
  engine::EngineConfig config;
  config.num_shards = 2;
  engine::ParallelEngine engine(config, nullptr);
  engine::IngestRouter router(&engine, 3);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  Status status = router.SubmitBlock(txs);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(IngestRouterTest, ConcurrentInstallsRaceParallelIngest) {
  // The full concurrency surface at once: N producers routing while an
  // allocator thread hammers InstallAllocation. TSan validates the
  // copy-on-write snapshot handoff against parallel ingest. Blocks that
  // reach kInlineWorkThreshold make both the router and the tick fan out
  // to their helpers.
  const uint32_t k = 4;
  const size_t accounts = 256;
  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block = 5'000.0;
  engine::ParallelEngine engine(config, RoundRobin(accounts, k));
  engine::IngestRouter router(&engine, 3);

  std::atomic<bool> stop{false};
  std::thread allocator([&] {
    uint64_t round = 0;
    while (!stop.load()) {
      auto next = std::make_shared<alloc::Allocation>(accounts, k);
      for (size_t a = 0; a < accounts; ++a) {
        next->Assign(static_cast<chain::AccountId>(a),
                     static_cast<alloc::ShardId>((a + round) % k));
      }
      ASSERT_TRUE(engine.InstallAllocation(std::move(next)).ok());
      ++round;
      std::this_thread::yield();
    }
  });

  std::vector<chain::Transaction> txs;
  while (txs.size() * engine::IngestRouter::kItemsPerRoutedTx <
         common::kInlineWorkThreshold) {
    for (size_t a = 0; a + 1 < accounts; a += 2) {
      txs.push_back(chain::Transaction::Simple(
          static_cast<chain::AccountId>(a),
          static_cast<chain::AccountId>(a + 1)));
    }
  }
  constexpr int kBlocks = 40;
  for (int b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(router.SubmitBlock(txs).ok());
    engine.Tick();
  }
  stop.store(true);
  allocator.join();
  const engine::EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted,
            static_cast<uint64_t>(kBlocks) * txs.size());
  EXPECT_EQ(report.sim.committed, report.sim.submitted);
  EXPECT_EQ(report.fanned_out_ticks, static_cast<uint64_t>(kBlocks));
}

}  // namespace
}  // namespace txallo
