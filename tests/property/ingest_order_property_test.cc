// Property: sequence-tagged ingest makes the pipeline's observable
// behaviour a pure function of the submitted stream — for random shard
// counts, λ budgets, epoch cadences and worker counts, the multi-lane run's
// per-lane execution order (the recorded prepare stream), 2PC outcome
// stream and per-step StepMetrics are byte-identical to the single-worker
// reference. Tight λ budgets are the
// interesting regime: the backlog spills across ticks, so any arrival-
// order divergence becomes an execution-order divergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "txallo/allocator/registry.h"
#include "txallo/common/rng.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

struct TrialShape {
  uint32_t shards;
  double capacity;
  uint32_t epoch_blocks;
  uint64_t blocks;
  uint64_t txs_per_block;
  uint32_t threads;
  uint64_t seed;
  std::string spec;
};

TrialShape SampleShape(Rng* rng, uint64_t trial) {
  TrialShape shape;
  const uint32_t shard_choices[] = {2, 3, 4, 8};
  shape.shards = shard_choices[rng->NextBounded(4)];
  shape.blocks = 10 + rng->NextBounded(12);
  shape.txs_per_block = 24 + rng->NextBounded(32);
  // λ between "very tight" (~15% of the per-shard offered load) and
  // "roomy"; both sides of the backlog regime get exercised.
  const double offered = static_cast<double>(shape.txs_per_block) /
                         static_cast<double>(shape.shards);
  shape.capacity = offered * (0.15 + 1.5 * rng->NextDouble());
  shape.epoch_blocks = 3 + static_cast<uint32_t>(rng->NextBounded(6));
  shape.threads = 1 + static_cast<uint32_t>(rng->NextBounded(4));
  shape.seed = 1000 + trial;
  shape.spec = rng->NextBernoulli(0.5) ? "hash" : "contrib";
  return shape;
}

Result<engine::PipelineResult> RunShape(const TrialShape& shape,
                                        const chain::Ledger& ledger,
                                        const chain::AccountRegistry* registry,
                                        uint32_t threads,
                                        engine::ReplayLog* record) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), shape.shards, 2.0);
  options.registry = registry;
  auto made = allocator::MakeAllocatorFromSpec(shape.spec, options);
  if (!made.ok()) return made.status();
  engine::EngineConfig config;
  config.num_shards = shape.shards;
  config.num_threads = threads;
  config.work.capacity_per_block = shape.capacity;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = shape.epoch_blocks;
  // Deferred: the deterministic driver-side schedule both runs share.
  pipeline.allocator_mode = engine::AllocatorMode::kDriverDeferred;
  pipeline.record = record;
  return engine::RunReallocatedStream(ledger, (*made)->AsOnline(), &engine,
                                      pipeline);
}

TEST(IngestOrderPropertyTest, RoutedRunsMatchSingleProducerReference) {
  Rng rng(20260726);
  constexpr uint64_t kTrials = 10;
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    const TrialShape shape = SampleShape(&rng, trial);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": k=" +
                 std::to_string(shape.shards) + " capacity=" +
                 std::to_string(shape.capacity) + " epoch=" +
                 std::to_string(shape.epoch_blocks) + " threads=" +
                 std::to_string(shape.threads) + " spec=" + shape.spec);

    workload::EthereumLikeConfig workload_config;
    workload_config.num_blocks = shape.blocks;
    workload_config.txs_per_block = shape.txs_per_block;
    workload_config.num_accounts = 500;
    workload_config.num_communities = 10;
    workload_config.seed = shape.seed;
    workload::EthereumLikeGenerator generator(workload_config);
    const chain::Ledger ledger = generator.GenerateLedger(shape.blocks);

    engine::ReplayLog reference_log;
    auto reference = RunShape(shape, ledger, &generator.registry(),
                              /*threads=*/1, &reference_log);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    engine::ReplayLog threaded_log;
    auto threaded = RunShape(shape, ledger, &generator.registry(),
                             shape.threads, &threaded_log);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

    // Byte-identical per-lane order and 2PC outcomes (the trace compares
    // every PrepareEvent/CommitEvent), identical install schedule, and an
    // identical per-step metrics series.
    EXPECT_EQ(engine::DescribeTraceDivergence(reference_log, threaded_log),
              "");
    ASSERT_EQ(threaded->steps.size(), reference->steps.size());
    for (size_t i = 0; i < reference->steps.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(i));
      // Full StepMetrics equality minus wall-clock alloc timings.
      engine::StepMetrics a = reference->steps[i];
      engine::StepMetrics b = threaded->steps[i];
      a.alloc_seconds = b.alloc_seconds = 0.0;
      a.alloc_wait_seconds = b.alloc_wait_seconds = 0.0;
      EXPECT_EQ(a, b);
    }
    EXPECT_EQ(threaded->report.sim.submitted, reference->report.sim.submitted);
    EXPECT_EQ(threaded->report.sim.committed, reference->report.sim.committed);
    EXPECT_DOUBLE_EQ(threaded->report.sim.avg_latency_blocks,
                     reference->report.sim.avg_latency_blocks);
    EXPECT_DOUBLE_EQ(threaded->report.sim.max_latency_blocks,
                     reference->report.sim.max_latency_blocks);
    EXPECT_EQ(threaded->accounts_moved, reference->accounts_moved);
  }
}

}  // namespace
}  // namespace txallo
