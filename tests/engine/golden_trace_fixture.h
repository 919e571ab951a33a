// The golden-trace workload: one pinned record/replay scenario shared by
// replay_golden_test.cc (which replays the committed fixture) and
// replay_golden_regen.cc (the `regen-golden-trace` CMake target that
// rewrites tests/engine/testdata/golden_small.trace after an intentional
// behaviour change).
//
// Every constant here is load-bearing: the committed binary trace is the
// canonical execution of exactly this workload under exactly this engine
// configuration, so changing anything below requires regenerating the
// fixture (`cmake --build build --target regen-golden-trace`) and
// reviewing the diff as a deliberate determinism-contract change.
#pragma once

#include <memory>

#include "txallo/allocator/registry.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::testing {

inline constexpr char kGoldenTraceFile[] = "golden_small.trace";
inline constexpr uint32_t kGoldenShards = 4;
inline constexpr uint32_t kGoldenEpochBlocks = 8;
// 4 windows of 8 blocks => 3 boundary rebalances: the "3-epoch run".
inline constexpr uint64_t kGoldenBlocks = 32;
// Tight funding: 960 transfers over 600 accounts at ≤7 units per input
// drain the busy accounts' balances partway through the run, so the trace
// pins a non-trivial abort stream (insufficient balance) alongside the
// commits — the golden run must exercise the rollback path, not just the
// happy path.
inline constexpr int64_t kGoldenBalance = 24;

inline workload::EthereumLikeConfig GoldenWorkloadConfig() {
  workload::EthereumLikeConfig config;
  config.num_blocks = kGoldenBlocks;
  config.txs_per_block = 30;
  config.num_accounts = 600;
  config.num_communities = 12;
  config.seed = 97;
  config.drift_interval_blocks = 10;
  config.initial_balance = kGoldenBalance;
  return config;
}

inline engine::EngineConfig GoldenEngineConfig(uint32_t threads) {
  engine::EngineConfig config;
  config.num_shards = kGoldenShards;
  config.num_threads = threads;
  // Tight λ (30 txs/block over 4 shards at 9 units/block): the backlog
  // spills across ticks, so the trace pins execution *order*, not just
  // totals.
  config.work.capacity_per_block = 9.0;
  config.hash_route_unassigned = true;
  // Real account-state execution: the trace additionally pins the per-tick
  // Merkle roots, the abort stream and the migration counts.
  config.state.enabled = true;
  config.state.initial_balance = kGoldenBalance;
  config.state.migration_work_per_account = 1.0;
  return config;
}

/// Records the canonical run: txallo-hybrid under the background
/// allocation schedule on 2 worker threads.
inline Result<engine::ReplayLog> RecordGoldenTrace() {
  const workload::EthereumLikeConfig workload_config = GoldenWorkloadConfig();
  workload::EthereumLikeGenerator generator(workload_config);
  const chain::Ledger ledger =
      generator.GenerateLedger(workload_config.num_blocks);

  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), kGoldenShards, 2.0);
  options.registry = &generator.registry();
  auto made = allocator::MakeAllocatorFromSpec("txallo-hybrid:global-every=2",
                                               options);
  if (!made.ok()) return made.status();
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  if (online == nullptr) {
    return Status::Internal("txallo-hybrid lost its online interface");
  }

  engine::ReplayLog log;
  engine::ParallelEngine engine(GoldenEngineConfig(/*threads=*/2), nullptr);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = kGoldenEpochBlocks;
  pipeline.allocator_mode = engine::AllocatorMode::kBackground;
  pipeline.record = &log;
  auto result = engine::RunReallocatedStream(ledger, online, &engine,
                                             pipeline);
  if (!result.ok()) return result.status();
  return log;
}

}  // namespace txallo::testing
