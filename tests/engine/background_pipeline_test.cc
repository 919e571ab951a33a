// The background allocation stage: RebalanceTask::Run() on the
// BackgroundAllocator worker racing live ingest/ticks, and the pipeline's
// determinism guarantee — kBackground's per-step block-level metrics are
// bit-identical to kDriverDeferred's (same logical install schedule, the
// allocation latency just hides behind execution). Runs under TSan via the
// "engine" label.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/engine/background_allocator.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

struct PipelineFixture {
  workload::EthereumLikeConfig config;
  std::unique_ptr<workload::EthereumLikeGenerator> generator;
  chain::Ledger ledger;
};

PipelineFixture MakeFixture(uint64_t blocks = 48, uint64_t seed = 29) {
  PipelineFixture f;
  f.config.num_blocks = blocks;
  f.config.txs_per_block = 50;
  f.config.num_accounts = 1'500;
  f.config.num_communities = 16;
  f.config.seed = seed;
  f.config.drift_interval_blocks = blocks / 3;
  f.generator = std::make_unique<workload::EthereumLikeGenerator>(f.config);
  f.ledger = f.generator->GenerateLedger(f.config.num_blocks);
  return f;
}

constexpr uint32_t kShards = 4;

alloc::AllocationParams FixtureParams(const PipelineFixture& f) {
  return alloc::AllocationParams::ForExperiment(f.ledger.num_transactions(),
                                                kShards, 2.0);
}

Result<engine::PipelineResult> RunWith(const PipelineFixture& f,
                                       allocator::OnlineAllocator* online,
                                       engine::AllocatorMode mode,
                                       uint32_t epoch_blocks) {
  const uint32_t k = kShards;
  engine::EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block =
      2.0 * static_cast<double>(f.config.txs_per_block) / k;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = epoch_blocks;
  pipeline.allocator_mode = mode;
  return engine::RunReallocatedStream(f.ledger, online, &engine, pipeline);
}

Result<engine::PipelineResult> RunMode(const PipelineFixture& f,
                                       const std::string& spec,
                                       engine::AllocatorMode mode,
                                       uint32_t epoch_blocks = 8) {
  allocator::AllocatorOptions options;
  options.params = FixtureParams(f);
  options.registry = &f.generator->registry();
  auto made = allocator::MakeAllocatorFromSpec(spec, options);
  if (!made.ok()) return made.status();
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  if (online == nullptr) {
    return Status::InvalidArgument(spec + " is one-shot only");
  }
  return RunWith(f, online, mode, epoch_blocks);
}

// Hash-routes everything (an empty mapping), but orders its own timeline:
// each rebalance's Run() sleeps at least kRunTime, and ApplyBlock() waits
// until the in-flight Run() has returned. The driver therefore reaches
// every boundary after the task finished, so Collect() only waits for the
// worker's hand-off, never for Run() itself, however the host schedules
// the two threads.
class LatchedAllocator : public allocator::OnlineAllocator {
 public:
  static constexpr std::chrono::milliseconds kRunTime{2};

  explicit LatchedAllocator(alloc::AllocationParams params)
      : OnlineAllocator("latched", params) {}

  Result<alloc::Allocation> Allocate(
      const allocator::AllocationContext& /*context*/) override {
    return CurrentAllocation();
  }

  void ApplyBlock(const chain::Block& /*block*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    released_.wait(lock, [this] { return !running_; });
  }

  std::unique_ptr<allocator::RebalanceTask> BeginRebalance() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = true;
    }
    return std::make_unique<allocator::ClosureRebalanceTask>(
        [this]() -> Result<alloc::Allocation> {
          std::this_thread::sleep_for(kRunTime);
          Release();
          return CurrentAllocation();
        },
        // Also on abandonment, so a dropped task cannot wedge ApplyBlock.
        [this](const Result<alloc::Allocation>& outcome) {
          Release();
          return outcome.status();
        });
  }

 private:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = false;
    }
    released_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable released_;
  bool running_ = false;
};

void ExpectStepsIdentical(const engine::PipelineResult& a,
                          const engine::PipelineResult& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.steps[i].first_block, b.steps[i].first_block);
    EXPECT_EQ(a.steps[i].last_block, b.steps[i].last_block);
    EXPECT_EQ(a.steps[i].submitted, b.steps[i].submitted);
    EXPECT_EQ(a.steps[i].committed, b.steps[i].committed);
    EXPECT_EQ(a.steps[i].cross_shard_submitted,
              b.steps[i].cross_shard_submitted);
    EXPECT_DOUBLE_EQ(a.steps[i].throughput_per_block,
                     b.steps[i].throughput_per_block);
    EXPECT_DOUBLE_EQ(a.steps[i].cross_shard_ratio,
                     b.steps[i].cross_shard_ratio);
    EXPECT_EQ(a.steps[i].installed, b.steps[i].installed);
  }
}

TEST(BackgroundAllocatorTest, RunsTaskOffThreadAndReportsTimings) {
  const PipelineFixture f = MakeFixture(12);
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      f.ledger.num_transactions(), 4, 2.0);
  options.registry = &f.generator->registry();
  auto made = allocator::MakeAllocator("metis", options);
  ASSERT_TRUE(made.ok());
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  ASSERT_NE(online, nullptr);
  for (const chain::Block& block : f.ledger.blocks()) {
    online->ApplyBlock(block);
  }

  engine::BackgroundAllocator background;
  EXPECT_FALSE(background.busy());
  EXPECT_FALSE(background.Collect().ok());  // Nothing in flight.
  EXPECT_FALSE(background.Launch(nullptr).ok());

  std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
  ASSERT_NE(task, nullptr);
  ASSERT_TRUE(background.Launch(std::move(task)).ok());
  EXPECT_TRUE(background.busy());
  // Double-launch while busy is rejected.
  EXPECT_FALSE(background.Launch(online->BeginRebalance()).ok());
  auto outcome = background.Collect();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(background.busy());
  ASSERT_TRUE(outcome->mapping.ok());
  ASSERT_TRUE(outcome->task->Commit().ok());
  EXPECT_GE(outcome->run_seconds, 0.0);
  EXPECT_GE(outcome->wait_seconds, 0.0);
  EXPECT_TRUE(online->CurrentAllocation() == *outcome->mapping);
  // The worker is reusable for the next epoch.
  std::unique_ptr<allocator::RebalanceTask> again = online->BeginRebalance();
  ASSERT_NE(again, nullptr);
  ASSERT_TRUE(background.Launch(std::move(again)).ok());
  auto second = background.Collect();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->task->Commit().ok());
}

TEST(BackgroundAllocatorTest, DroppedUncollectedTaskDoesNotWedgeAllocator) {
  // The pipeline's error paths destroy the BackgroundAllocator with a task
  // still in flight; abandonment (destruction without Commit) must release
  // the strategy's outstanding-task bookkeeping — a TxAllo allocator used
  // to stay wedged (BeginRebalance() == nullptr forever) and buffer every
  // subsequent block unboundedly.
  const PipelineFixture f = MakeFixture(16);
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "broker:inner=txallo-hybrid"}) {
    SCOPED_TRACE(spec);
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        f.ledger.num_transactions(), 4, 2.0);
    options.registry = &f.generator->registry();
    auto made = allocator::MakeAllocatorFromSpec(spec, options);
    ASSERT_TRUE(made.ok());
    allocator::OnlineAllocator* online = (*made)->AsOnline();
    ASSERT_NE(online, nullptr);
    for (const chain::Block& block : f.ledger.blocks()) {
      online->ApplyBlock(block);
    }
    {
      engine::BackgroundAllocator background;
      ASSERT_TRUE(background.Launch(online->BeginRebalance()).ok());
      // Destroyed uncollected: Run may or may not have started; either
      // way the task is dropped without Commit().
    }
    online->ApplyBlock(f.ledger.blocks().front());
    std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
    ASSERT_NE(task, nullptr) << "allocator wedged by the abandoned task";
    ASSERT_TRUE(task->Run().ok());
    ASSERT_TRUE(task->Commit().ok());
  }
}

TEST(BackgroundAllocatorTest, AbandonedTaskMappingIsNeverFoldedIn) {
  // Dropping a task — before or after its Run() — must not apply its
  // mapping: while it is outstanding and after it is dropped,
  // CurrentAllocation() is the pre-BeginRebalance() mapping, and the
  // allocator then continues exactly like one that never launched it.
  // TxAllo's task owns (and steps) the controller, so this pins its
  // checkpoint restore and the replay of blocks buffered meanwhile.
  const PipelineFixture f = MakeFixture(16);
  const auto& blocks = f.ledger.blocks();
  const size_t third = blocks.size() / 3;
  for (const std::string spec :
       {"metis", "txallo-hybrid:global-every=3", "txallo-global"}) {
    for (const bool run_before_drop : {false, true}) {
      SCOPED_TRACE(spec + (run_before_drop ? " (dropped after Run)"
                                           : " (dropped before Run)"));
      allocator::AllocatorOptions options;
      options.params = alloc::AllocationParams::ForExperiment(
          f.ledger.num_transactions(), 4, 2.0);
      options.registry = &f.generator->registry();
      auto made = allocator::MakeAllocatorFromSpec(spec, options);
      auto never = allocator::MakeAllocatorFromSpec(spec, options);
      ASSERT_TRUE(made.ok() && never.ok());
      allocator::OnlineAllocator* online = (*made)->AsOnline();
      allocator::OnlineAllocator* reference = (*never)->AsOnline();
      for (size_t b = 0; b < third; ++b) {
        online->ApplyBlock(blocks[b]);
        reference->ApplyBlock(blocks[b]);
      }
      ASSERT_TRUE(online->Rebalance().ok());
      ASSERT_TRUE(reference->Rebalance().ok());
      for (size_t b = third; b < 2 * third; ++b) {
        online->ApplyBlock(blocks[b]);
        reference->ApplyBlock(blocks[b]);
      }
      const alloc::Allocation before = online->CurrentAllocation();
      {
        std::unique_ptr<allocator::RebalanceTask> task =
            online->BeginRebalance();
        ASSERT_NE(task, nullptr);
        if (run_before_drop) {
          ASSERT_TRUE(task->Run().ok());
        }
        // Blocks absorbed while the task is outstanding.
        online->ApplyBlock(blocks[2 * third]);
        EXPECT_TRUE(online->CurrentAllocation() == before);
        // Dropped without Commit().
      }
      EXPECT_TRUE(online->CurrentAllocation() == before);
      for (size_t b = 2 * third + 1; b < blocks.size(); ++b) {
        online->ApplyBlock(blocks[b]);
      }
      for (size_t b = 2 * third; b < blocks.size(); ++b) {
        reference->ApplyBlock(blocks[b]);
      }
      Result<alloc::Allocation> next = online->Rebalance();
      Result<alloc::Allocation> expected = reference->Rebalance();
      ASSERT_TRUE(next.ok() && expected.ok());
      EXPECT_TRUE(*next == *expected)
          << "the abandoned task leaked into the next rebalance";
    }
  }
}

TEST(BackgroundAllocatorTest, RebalanceWhileTaskOutstandingFails) {
  // Rebalance() is BeginRebalance() → Run() → Commit(); with a task already
  // outstanding there is no second task to run, so it must fail instead of
  // stepping the allocator behind the outstanding task's back, and the
  // refused call must not shift the hybrid global-every cadence.
  const PipelineFixture f = MakeFixture(16);
  const auto& blocks = f.ledger.blocks();
  const size_t half = blocks.size() / 2;
  for (const std::string spec :
       {"txallo-global", "txallo-hybrid:global-every=3",
        "broker:inner=txallo-hybrid"}) {
    SCOPED_TRACE(spec);
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        f.ledger.num_transactions(), 4, 2.0);
    options.registry = &f.generator->registry();
    auto made = allocator::MakeAllocatorFromSpec(spec, options);
    auto sync = allocator::MakeAllocatorFromSpec(spec, options);
    ASSERT_TRUE(made.ok() && sync.ok());
    allocator::OnlineAllocator* online = (*made)->AsOnline();
    allocator::OnlineAllocator* reference = (*sync)->AsOnline();
    for (size_t b = 0; b < half; ++b) {
      online->ApplyBlock(blocks[b]);
      reference->ApplyBlock(blocks[b]);
    }
    std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
    ASSERT_NE(task, nullptr);
    Result<alloc::Allocation> refused = online->Rebalance();
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    Result<alloc::Allocation> mapping = task->Run();
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(task->Commit().ok());
    Result<alloc::Allocation> expected = reference->Rebalance();
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(*mapping == *expected);
    for (size_t b = half; b < blocks.size(); ++b) {
      online->ApplyBlock(blocks[b]);
      reference->ApplyBlock(blocks[b]);
    }
    Result<alloc::Allocation> next = online->Rebalance();
    Result<alloc::Allocation> next_expected = reference->Rebalance();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next_expected.ok());
    EXPECT_TRUE(*next == *next_expected)
        << "the refused Rebalance() shifted the schedule";
  }
}

TEST(BackgroundPipelineTest, BackgroundMatchesDeferredStepForStep) {
  // The acceptance bar: background allocation must not change any logical
  // block-level number — only where the allocation latency is spent.
  const PipelineFixture f = MakeFixture();
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "metis", "contrib"}) {
    SCOPED_TRACE(spec);
    auto deferred =
        RunMode(f, spec, engine::AllocatorMode::kDriverDeferred);
    auto background = RunMode(f, spec, engine::AllocatorMode::kBackground);
    ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
    ASSERT_TRUE(background.ok()) << background.status().ToString();
    ExpectStepsIdentical(*deferred, *background);
    EXPECT_EQ(background->epochs, deferred->epochs);
    EXPECT_EQ(background->accounts_moved, deferred->accounts_moved);
    EXPECT_EQ(background->report.sim.submitted,
              deferred->report.sim.submitted);
    EXPECT_EQ(background->report.sim.committed,
              deferred->report.sim.committed);
    EXPECT_EQ(background->report.sim.cross_shard_submitted,
              deferred->report.sim.cross_shard_submitted);
    EXPECT_EQ(background->report.sim.blocks_elapsed,
              deferred->report.sim.blocks_elapsed);
    EXPECT_DOUBLE_EQ(background->report.sim.avg_latency_blocks,
                     deferred->report.sim.avg_latency_blocks);
    EXPECT_EQ(background->report.reallocations,
              deferred->report.reallocations);
    // The deferred driver stalls for every rebalance; background hides the
    // latency (wait <= compute, never more).
    EXPECT_DOUBLE_EQ(deferred->alloc_overlap_ratio, 0.0);
    EXPECT_GE(background->alloc_overlap_ratio, 0.0);
    EXPECT_LE(background->alloc_overlap_ratio, 1.0);
  }
}

TEST(BackgroundPipelineTest, ReportsPositiveOverlapOnMultiEpochRun) {
  // alloc_overlap_ratio > 0: at least part of the allocation latency hides
  // behind execution. The latched strategy guarantees every Run() (>= 2 ms)
  // has returned before the driver reaches the next boundary, so each
  // Collect() waits only for the worker's hand-off.
  const PipelineFixture f = MakeFixture(60, 31);
  LatchedAllocator latched(FixtureParams(f));
  auto result = RunWith(f, &latched, engine::AllocatorMode::kBackground,
                        /*epoch_blocks=*/6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->epochs, 5u);
  const double min_run_seconds =
      static_cast<double>(result->epochs) *
      std::chrono::duration<double>(LatchedAllocator::kRunTime).count();
  EXPECT_GE(result->alloc_seconds, min_run_seconds);
  EXPECT_GT(result->alloc_overlap_ratio, 0.0);
}

TEST(BackgroundPipelineTest, BackgroundRebalanceDuringParallelIngest) {
  // The full pipeline: driver ingest ∥ two-lane shard execution ∥
  // background rebalances, across every strategy shape (controller
  // handover, graph double-buffer, scheduler copy, decorator). TSan covers
  // the handoffs.
  const PipelineFixture f = MakeFixture();
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "shard-scheduler",
        "broker:inner=contrib"}) {
    SCOPED_TRACE(spec);
    auto result = RunMode(f, spec, engine::AllocatorMode::kBackground);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->report.sim.submitted, f.ledger.num_transactions());
    EXPECT_EQ(result->report.sim.committed, f.ledger.num_transactions());
    EXPECT_EQ(result->epochs, 5u);  // 6 windows of 8 blocks.
    // Initial install + one deferred install per boundary except the first.
    EXPECT_EQ(result->report.reallocations, 5u);
  }
}

TEST(BackgroundPipelineTest, DeferredInstallScheduleIsOneBoundaryLate) {
  const PipelineFixture f = MakeFixture();
  auto sync = RunMode(f, "metis", engine::AllocatorMode::kDriverSync);
  auto deferred = RunMode(f, "metis", engine::AllocatorMode::kDriverDeferred);
  ASSERT_TRUE(sync.ok() && deferred.ok());
  // 6 windows: 5 boundary rebalances in both schedules.
  EXPECT_EQ(sync->epochs, 5u);
  EXPECT_EQ(deferred->epochs, 5u);
  // Sync installs at every boundary (plus the initial snapshot); deferred
  // publishes one boundary later, so its last mapping never installs.
  EXPECT_EQ(sync->report.reallocations, 6u);
  EXPECT_EQ(deferred->report.reallocations, 5u);
  // 6 ledger windows, plus a trailing drain step when pending commit
  // rounds spill past the stream (both schedules drain identically).
  ASSERT_GE(sync->steps.size(), 6u);
  ASSERT_EQ(sync->steps.size(), deferred->steps.size());
  EXPECT_TRUE(sync->steps[0].installed);
  EXPECT_FALSE(deferred->steps[0].installed);  // Nothing held yet.
  EXPECT_TRUE(deferred->steps[1].installed);
  EXPECT_FALSE(sync->steps[5].installed);      // Trailing window: no update.
  EXPECT_FALSE(deferred->steps[5].installed);
  for (size_t i = 6; i < sync->steps.size(); ++i) {
    EXPECT_EQ(sync->steps[i].submitted, 0u);   // Drain: commits only.
    EXPECT_FALSE(sync->steps[i].installed);
  }
}

}  // namespace
}  // namespace txallo
