// Property: every registered scenario is a deterministic stream all the
// way through the pipeline — for each name in RegisteredScenarioNames(),
// the multi-threaded run's per-lane execution order, 2PC outcome stream,
// and per-step metrics are byte-identical to the single-worker reference.
// This is the contract that makes gauntlet snapshots byte-reproducible
// under --threads: the adversarial overlays must not introduce any
// schedule-dependent behavior the ethereum background does not have.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/scenario_registry.h"

namespace txallo {
namespace {

Result<engine::PipelineResult> RunScenario(const chain::Ledger& ledger,
                                           const chain::AccountRegistry* registry,
                                           uint32_t shards, uint32_t threads,
                                           engine::ReplayLog* record) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), shards, 2.0);
  options.registry = registry;
  auto made = allocator::MakeAllocatorFromSpec("txallo-hybrid", options);
  if (!made.ok()) return made.status();
  engine::EngineConfig config;
  config.num_shards = shards;
  config.num_threads = threads;
  // Tight λ so the backlog spills across ticks: arrival-order divergence
  // would become execution-order divergence.
  config.work.capacity_per_block = 6.0;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 4;
  pipeline.allocator_mode = engine::AllocatorMode::kDriverDeferred;
  pipeline.record = record;
  return engine::RunReallocatedStream(ledger, (*made)->AsOnline(), &engine,
                                      pipeline);
}

TEST(ScenarioPipelinePropertyTest, EveryScenarioIsScheduleInvariant) {
  workload::ScenarioShape shape;
  shape.num_blocks = 16;
  shape.txs_per_block = 48;
  shape.num_accounts = 700;
  shape.num_communities = 12;
  shape.seed = 20260808;

  constexpr uint32_t kShards = 4;
  const uint32_t thread_counts[] = {2, 3, 4};

  for (const std::string& name : workload::RegisteredScenarioNames()) {
    SCOPED_TRACE("scenario " + name);
    // shard-attack/stress target a hash shard; tune them to the engine's k
    // the way a bench invocation would.
    std::string spec = name;
    if (name == "shard-attack" || name == "stress") {
      spec += ":shards=" + std::to_string(kShards) + ",target=1";
    }
    auto scenario = workload::MakeScenarioFromSpec(spec, shape);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const chain::Ledger ledger =
        (*scenario)->GenerateLedger((*scenario)->num_blocks());

    engine::ReplayLog reference_log;
    auto reference =
        RunScenario(ledger, &(*scenario)->registry(), kShards,
                    /*threads=*/1, &reference_log);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (const uint32_t threads : thread_counts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      engine::ReplayLog threaded_log;
      auto threaded = RunScenario(ledger, &(*scenario)->registry(), kShards,
                                  threads, &threaded_log);
      ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

      EXPECT_EQ(engine::DescribeTraceDivergence(reference_log, threaded_log),
                "");
      ASSERT_EQ(threaded->steps.size(), reference->steps.size());
      for (size_t i = 0; i < reference->steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        engine::StepMetrics a = reference->steps[i];
        engine::StepMetrics b = threaded->steps[i];
        a.alloc_seconds = b.alloc_seconds = 0.0;
        a.alloc_wait_seconds = b.alloc_wait_seconds = 0.0;
        EXPECT_EQ(a, b);
      }
      EXPECT_EQ(threaded->report.sim.committed,
                reference->report.sim.committed);
      EXPECT_EQ(threaded->accounts_moved, reference->accounts_moved);
    }
  }
}

// The generator side alone: two scenarios built from the same spec must
// produce byte-identical ledgers even when consumed concurrently is not a
// question (GenerateLedger is single-threaded) — but the *fingerprint*
// must also survive a second instantiation after the first was consumed,
// i.e. no hidden global state anywhere in the registry.
TEST(ScenarioPipelinePropertyTest, ReinstantiationIsBitIdentical) {
  workload::ScenarioShape shape;
  shape.num_blocks = 10;
  shape.txs_per_block = 40;
  shape.num_accounts = 500;
  shape.num_communities = 8;
  shape.seed = 99;
  for (const std::string& name : workload::RegisteredScenarioNames()) {
    SCOPED_TRACE("scenario " + name);
    auto first = workload::MakeScenarioFromSpec(name, shape);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const uint64_t fp1 = engine::FingerprintLedger(
        (*first)->GenerateLedger((*first)->num_blocks()));
    auto second = workload::MakeScenarioFromSpec(name, shape);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const uint64_t fp2 = engine::FingerprintLedger(
        (*second)->GenerateLedger((*second)->num_blocks()));
    EXPECT_EQ(fp1, fp2);
  }
}

}  // namespace
}  // namespace txallo
