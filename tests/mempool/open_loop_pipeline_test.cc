// Open-loop pipeline integration: the mempool front-end driving the
// parallel engine through engine::IngestMode::kOpenLoop. Pins the
// determinism contract end-to-end — byte-identical traces, step metrics,
// admission counters and latency histograms across engine thread counts —
// plus trace save/load/replay round-trips and the open-loop input
// validation.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "txallo/allocator/registry.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"
#include "txallo/workload/scenario_registry.h"

namespace txallo {
namespace {

chain::Ledger MakeLedger(uint64_t blocks = 16, uint64_t seed = 5) {
  workload::EthereumLikeConfig config;
  config.num_blocks = blocks;
  config.txs_per_block = 25;
  config.num_accounts = 400;
  config.num_communities = 8;
  config.seed = seed;
  workload::EthereumLikeGenerator generator(config);
  return generator.GenerateLedger(blocks);
}

engine::EngineConfig SmallEngineConfig(uint32_t num_threads = 0) {
  engine::EngineConfig config;
  config.num_shards = 4;
  config.num_threads = num_threads;
  config.work.capacity_per_block = 8.0;
  config.hash_route_unassigned = true;
  return config;
}

std::unique_ptr<allocator::Allocator> MakeAllocator(
    const chain::Ledger& ledger) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), 4, 2.0);
  auto made = allocator::MakeAllocatorFromSpec("metis", options);
  EXPECT_TRUE(made.ok());
  return std::move(*made);
}

engine::PipelineConfig OpenLoopPipeline(double offered_load) {
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 8;
  pipeline.ingest_mode = engine::IngestMode::kOpenLoop;
  pipeline.open_loop.offered_load = offered_load;
  return pipeline;
}

TEST(OpenLoopPipelineTest, CommitsEverythingAndMeasuresLatency) {
  const chain::Ledger ledger = MakeLedger();
  auto alloc = MakeAllocator(ledger);
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                             &engine, OpenLoopPipeline(30.0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const uint64_t total = ledger.num_transactions();
  EXPECT_EQ(result->admission.submitted, total);
  EXPECT_EQ(result->admission.admitted, total);
  EXPECT_EQ(result->admission.dropped(), 0u);
  EXPECT_EQ(result->report.sim.committed, total);
  // Every committed transaction contributes exactly one latency sample.
  EXPECT_EQ(result->e2e_latency_ticks.count(), total);
  EXPECT_GE(result->e2e_latency_ticks.Percentile(99.0),
            result->e2e_latency_ticks.Percentile(50.0));
  EXPECT_GE(result->e2e_latency_ticks.max(),
            result->e2e_latency_ticks.Percentile(99.9));

  // Per-window deltas reconcile with the run totals.
  uint64_t offered = 0, admitted = 0, dropped = 0;
  bool saw_depth = false;
  for (const engine::StepMetrics& step : result->steps) {
    offered += step.offered;
    admitted += step.admitted;
    dropped += step.admission_dropped;
    if (step.mempool_peak_depth > 0) saw_depth = true;
    EXPECT_GE(step.latency_p99_ticks, step.latency_p50_ticks);
    EXPECT_GE(step.latency_p999_ticks, step.latency_p99_ticks);
  }
  EXPECT_EQ(offered, total);
  EXPECT_EQ(admitted, total);
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(saw_depth);
}

TEST(OpenLoopPipelineTest, TraceBitIdenticalAcrossThreadsAndProducers) {
  const chain::Ledger ledger = MakeLedger();
  engine::ReplayLog base;
  {
    auto alloc = MakeAllocator(ledger);
    engine::ParallelEngine engine(SmallEngineConfig(1), nullptr);
    engine::PipelineConfig pipeline = OpenLoopPipeline(30.0);
    pipeline.record = &base;
    auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                               &engine, pipeline);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  ASSERT_FALSE(base.commits.empty());
  EXPECT_EQ(base.meta.ingest_mode, 1u);
  EXPECT_EQ(base.meta.offered_load, 30.0);

  for (const uint32_t threads : {4u, 2u}) {
    auto alloc = MakeAllocator(ledger);
    engine::ParallelEngine engine(SmallEngineConfig(threads), nullptr);
    engine::ReplayLog log;
    engine::PipelineConfig pipeline = OpenLoopPipeline(30.0);
    pipeline.record = &log;
    auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                               &engine, pipeline);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Covers commits, prepares, state roots, meta and the step metrics
    // (wall-clock allocation timings excluded — the only fields allowed
    // to differ between two live runs).
    EXPECT_EQ(engine::DescribeTraceDivergence(base, log), "")
        << threads << " threads";
  }
}

TEST(OpenLoopPipelineTest, SaveLoadReplayRoundTripSelfVerifies) {
  const chain::Ledger ledger = MakeLedger();
  engine::ReplayLog log;
  {
    auto alloc = MakeAllocator(ledger);
    engine::ParallelEngine engine(SmallEngineConfig(2), nullptr);
    engine::PipelineConfig pipeline = OpenLoopPipeline(24.0);
    pipeline.open_loop.dispatch_per_tick = 20;
    pipeline.open_loop.fee_levels = 4;
    pipeline.open_loop.mempool.capacity = 200;
    pipeline.open_loop.mempool.account_pending_limit = 6;
    pipeline.record = &log;
    auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                               &engine, pipeline);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const std::string path = ::testing::TempDir() + "open_loop_roundtrip.trace";
  ASSERT_TRUE(engine::SaveReplayLog(log, path).ok());
  auto loaded = engine::LoadReplayLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(engine::DescribeTraceDivergence(log, *loaded), "");
  EXPECT_EQ(loaded->meta.ingest_mode, 1u);
  EXPECT_EQ(loaded->meta.offered_load, 24.0);
  EXPECT_EQ(loaded->meta.dispatch_per_tick, 20u);
  EXPECT_EQ(loaded->meta.fee_levels, 4u);
  EXPECT_EQ(loaded->meta.mempool_capacity, 200u);
  EXPECT_EQ(loaded->meta.account_pending_limit, 6u);

  // Replay on a fresh engine with a different thread count: the pipeline
  // reconstructs the open-loop drive from the trace meta (the caller's
  // open_loop config is deliberately left default here) and verifies the
  // re-execution against the recorded trace internally.
  engine::ParallelEngine engine(SmallEngineConfig(4), nullptr);
  auto replayed = engine::ReplayRecordedStream(ledger, *loaded, &engine,
                                               engine::PipelineConfig{});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->steps.size(), log.steps.size());
  for (size_t i = 0; i < log.steps.size(); ++i) {
    EXPECT_EQ(replayed->steps[i], log.steps[i]) << "step " << i;
  }
}

TEST(OpenLoopPipelineTest, AdmissionSheddingIsDeterministicUnderOverload) {
  const chain::Ledger ledger = MakeLedger();
  const auto run = [&](uint32_t threads) {
    auto alloc = MakeAllocator(ledger);
    engine::ParallelEngine engine(SmallEngineConfig(threads), nullptr);
    engine::PipelineConfig pipeline = OpenLoopPipeline(60.0);
    pipeline.open_loop.dispatch_per_tick = 10;
    pipeline.open_loop.mempool.capacity = 40;
    pipeline.open_loop.mempool.account_rate_limit = 8;
    auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                               &engine, pipeline);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  const engine::PipelineResult base = run(1);
  EXPECT_GT(base.admission.dropped(), 0u);
  EXPECT_EQ(base.admission.dropped_backpressure, 0u)
      << "all shedding must happen at the deterministic seal";
  EXPECT_LT(base.report.sim.committed, ledger.num_transactions());
  EXPECT_EQ(base.report.sim.committed, base.admission.admitted);
  EXPECT_EQ(base.e2e_latency_ticks.count(), base.report.sim.committed);

  const engine::PipelineResult other = run(4);
  EXPECT_EQ(other.admission, base.admission);
  EXPECT_TRUE(other.e2e_latency_ticks == base.e2e_latency_ticks);
  EXPECT_EQ(other.report.sim.committed, base.report.sim.committed);
}

TEST(OpenLoopPipelineTest, IngestProducersHaveNoEffect) {
  // The perf ledger's open-loop shape in small: a stress scenario with
  // account state on, background allocation and two engine lanes.
  // `ingest_producers` must change neither the result nor the trace.
  workload::ScenarioShape shape;
  shape.num_blocks = 24;
  shape.txs_per_block = 40;
  shape.num_accounts = 600;
  shape.num_communities = 8;
  // Tight funding, so insufficient-balance aborts are part of the
  // compared run.
  shape.initial_balance = 24;
  auto scenario =
      workload::MakeScenarioFromSpec("stress:shards=4,target=1", shape);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const chain::Ledger ledger =
      (*scenario)->GenerateLedger((*scenario)->num_blocks());
  const auto run = [&](uint32_t producers, engine::ReplayLog* log) {
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), 4, 2.0);
    options.registry = &(*scenario)->registry();
    auto made = allocator::MakeAllocatorFromSpec(
        "txallo-hybrid:global-every=4", options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    engine::EngineConfig config = SmallEngineConfig(2);
    config.state.enabled = true;
    config.state.initial_balance = (*scenario)->initial_balance();
    engine::ParallelEngine engine(config, nullptr);
    engine::PipelineConfig pipeline = OpenLoopPipeline(30.0);
    pipeline.blocks_per_epoch = 6;
    pipeline.allocator_mode = engine::AllocatorMode::kBackground;
    pipeline.ingest_producers = producers;
    pipeline.record = log;
    auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                               &engine, pipeline);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    engine::PipelineResult r = std::move(*result);
    // Wall-clock fields are the only ones two live runs may differ in.
    r.alloc_seconds = r.alloc_wait_seconds = r.alloc_overlap_ratio = 0.0;
    r.report.worker_stall_seconds = 0.0;
    for (engine::StepMetrics& step : r.steps) {
      step.alloc_seconds = step.alloc_wait_seconds = 0.0;
    }
    return r;
  };
  engine::ReplayLog direct_log, producers_log;
  const engine::PipelineResult direct = run(0, &direct_log);
  const engine::PipelineResult two = run(2, &producers_log);
  EXPECT_GT(direct.report.aborted, 0u) << "the run no longer aborts";
  EXPECT_GT(direct.report.reallocations, 1u);

  EXPECT_EQ(engine::DescribeTraceDivergence(direct_log, producers_log), "");
  EXPECT_EQ(two.report.sim, direct.report.sim);
  EXPECT_EQ(two.report.max_queue_depth, direct.report.max_queue_depth);
  EXPECT_EQ(two.report.fanned_out_ticks, direct.report.fanned_out_ticks);
  EXPECT_EQ(two.report.reallocations, direct.report.reallocations);
  EXPECT_EQ(two.report.prepares_received, direct.report.prepares_received);
  EXPECT_EQ(two.report.cross_shard_committed,
            direct.report.cross_shard_committed);
  EXPECT_EQ(two.report.aborted, direct.report.aborted);
  EXPECT_EQ(two.report.cross_shard_aborted,
            direct.report.cross_shard_aborted);
  EXPECT_EQ(two.report.accounts_migrated, direct.report.accounts_migrated);
  EXPECT_TRUE(two.report.commit_latency_blocks ==
              direct.report.commit_latency_blocks);
  EXPECT_EQ(two.epochs, direct.epochs);
  EXPECT_EQ(two.accounts_moved, direct.accounts_moved);
  EXPECT_EQ(two.overrun_boundaries, direct.overrun_boundaries);
  EXPECT_EQ(two.admission, direct.admission);
  EXPECT_TRUE(two.e2e_latency_ticks == direct.e2e_latency_ticks);
  EXPECT_EQ(two.steps, direct.steps);
}

TEST(OpenLoopPipelineTest, RejectsNonPositiveOfferedLoad) {
  const chain::Ledger ledger = MakeLedger(4);
  auto alloc = MakeAllocator(ledger);
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  auto result = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                             &engine, OpenLoopPipeline(0.0));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OpenLoopPipelineTest, RejectsStaleEngine) {
  const chain::Ledger ledger = MakeLedger(4);
  engine::ParallelEngine engine(SmallEngineConfig(), nullptr);
  {
    auto alloc = MakeAllocator(ledger);
    auto first = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                              &engine, OpenLoopPipeline(8.0));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
  }
  // Commit observation must precede the first submission, so a second run
  // on the same engine is rejected up front rather than mis-measured.
  auto alloc = MakeAllocator(ledger);
  auto second = engine::RunReallocatedStream(ledger, alloc->AsOnline(),
                                             &engine, OpenLoopPipeline(8.0));
  EXPECT_FALSE(second.ok());
}

}  // namespace
}  // namespace txallo
