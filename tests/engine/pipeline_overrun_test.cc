// Multi-epoch allocation lookahead (PipelineConfig::allow_epoch_overrun):
// a RebalanceTask that overruns its epoch must not block the tick loop —
// the boundary is skipped (counted in PipelineResult::overrun_boundaries)
// and the mapping installs at the next boundary it is ready for. The
// default schedule still blocks, bit-compatible with kDriverDeferred.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::engine {
namespace {

// An online allocator whose background Run() dawdles: with 8-block epochs
// ticking in microseconds, every later boundary arrives while the task is
// still asleep. The mapping itself is trivial (id mod k over the accounts
// seen at snapshot time) — this test is about the schedule, not quality.
class SlowAllocator : public allocator::OnlineAllocator {
 public:
  SlowAllocator(alloc::AllocationParams params, uint64_t sleep_ms)
      : OnlineAllocator("slow-test", params), sleep_ms_(sleep_ms) {}

  void ApplyBlock(const chain::Block& block) override {
    for (const chain::Transaction& tx : block.transactions()) {
      for (chain::AccountId a : tx.accounts()) {
        num_accounts_ = std::max<uint64_t>(num_accounts_, a + 1);
      }
    }
  }

  Result<alloc::Allocation> Allocate(
      const allocator::AllocationContext&) override {
    return MappingFor(num_accounts_, params_.num_shards);
  }

  std::unique_ptr<allocator::RebalanceTask> BeginRebalance() override {
    // Snapshot now: Run() must not touch the parent (it races ApplyBlock).
    const uint64_t frozen = num_accounts_;
    const uint64_t sleep_ms = sleep_ms_;
    const uint32_t shards = params_.num_shards;
    return std::make_unique<allocator::ClosureRebalanceTask>(
        [frozen, sleep_ms, shards]() -> Result<alloc::Allocation> {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          return MappingFor(frozen, shards);
        },
        [](const Status&) { return Status(); });
  }

 private:
  static Result<alloc::Allocation> MappingFor(uint64_t accounts,
                                              uint32_t shards) {
    alloc::Allocation mapping(accounts, shards);
    for (uint64_t a = 0; a < accounts; ++a) {
      mapping.Assign(static_cast<chain::AccountId>(a),
                     static_cast<alloc::ShardId>(a % shards));
    }
    return mapping;
  }
  const uint64_t sleep_ms_;
  uint64_t num_accounts_ = 0;
};

struct Outcome {
  PipelineResult result;
  uint64_t total_txs = 0;
};

Outcome RunWithSlowAllocator(bool allow_overrun, uint64_t sleep_ms) {
  workload::EthereumLikeConfig workload;
  workload.num_blocks = 40;
  workload.txs_per_block = 30;
  workload.num_accounts = 400;
  workload.num_communities = 8;
  workload.seed = 11;
  workload::EthereumLikeGenerator generator(workload);
  const chain::Ledger ledger = generator.GenerateLedger(workload.num_blocks);

  const uint32_t k = 4;
  SlowAllocator slow(
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                             2.0),
      sleep_ms);

  EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block =
      2.0 * static_cast<double>(workload.txs_per_block) / k;
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, nullptr);

  PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 8;  // 5 windows -> 4 boundary rebalances.
  pipeline.allocator_mode = AllocatorMode::kBackground;
  pipeline.allow_epoch_overrun = allow_overrun;
  auto result = RunReallocatedStream(ledger, &slow, &engine, pipeline);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return {*result, ledger.num_transactions()};
}

TEST(PipelineOverrunTest, OverrunningTaskSkipsBoundariesInsteadOfBlocking) {
  const Outcome run = RunWithSlowAllocator(/*allow_overrun=*/true,
                                       /*sleep_ms=*/150);
  // The first boundary launches the task; the remaining boundaries arrive
  // while it still sleeps and must be skipped, not waited for.
  EXPECT_GE(run.result.overrun_boundaries, 1u);
  // Every boundary is accounted for exactly once: launched or skipped.
  EXPECT_EQ(run.result.epochs + run.result.overrun_boundaries, 4u);
  EXPECT_GE(run.result.epochs, 1u);
  // Skipping never drops work: the stream still drains completely.
  EXPECT_EQ(run.result.report.sim.committed, run.total_txs);
  // The final drain harvests the in-flight task, so the overrun schedule
  // still publishes at least the bootstrap mapping.
  EXPECT_GE(run.result.report.reallocations, 1u);
}

TEST(PipelineOverrunTest, DefaultScheduleStillBlocksAtEveryBoundary) {
  const Outcome run = RunWithSlowAllocator(/*allow_overrun=*/false,
                                       /*sleep_ms=*/20);
  EXPECT_EQ(run.result.overrun_boundaries, 0u);
  EXPECT_EQ(run.result.epochs, 4u);
  EXPECT_EQ(run.result.report.sim.committed, run.total_txs);
  // The blocking schedule waits for the task at every boundary after the
  // first, whatever its run time, and installs its mapping there (blocks
  // 16, 24 and 32): the stall overrun skipping exists to avoid.
  ASSERT_GE(run.result.steps.size(), 4u);
  EXPECT_FALSE(run.result.steps[0].installed);
  for (uint64_t boundary = 1; boundary < 4; ++boundary) {
    EXPECT_TRUE(run.result.steps[boundary].installed) << boundary;
    EXPECT_EQ(run.result.steps[boundary].last_block, 8 * (boundary + 1));
  }
  EXPECT_EQ(run.result.report.reallocations, 4u);  // Bootstrap + 3.
}

TEST(PipelineOverrunTest, FastTaskNeverTriggersOverruns) {
  // With no sleep the task finishes within its epoch; the overrun knob
  // must then change nothing about the schedule.
  const Outcome run = RunWithSlowAllocator(/*allow_overrun=*/true,
                                       /*sleep_ms=*/0);
  EXPECT_EQ(run.result.epochs + run.result.overrun_boundaries, 4u);
  EXPECT_EQ(run.result.report.sim.committed, run.total_txs);
}

}  // namespace
}  // namespace txallo::engine
