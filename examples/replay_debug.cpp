// Deterministic record/replay walkthrough: the debugging workflow the
// engine's determinism contract buys.
//
//   1. Record: a background-mode reallocation pipeline (worker pool,
//      online TxAllo rebalances) streams a drifting workload
//      while every deterministic event — per-tick per-shard prepare order,
//      2PC outcomes, install boundaries, the per-step metrics series — is
//      captured into an engine::ReplayLog.
//   2. Persist: the trace round-trips through the compact binary format
//      (plus a CSV dump for eyeballing).
//   3. Replay: the loaded trace re-executes bit-identically under
//      *different* execution shapes (1 thread, 4 threads) — a failing run
//      can be re-run under a debugger single-threaded without changing
//      what happens.
//   4. Guard: replaying against the wrong workload is refused up front via
//      the trace's ledger fingerprint instead of diverging quietly.
//
//   ./build/examples/replay_debug [--blocks=N] [--k=K]
//       [--trace=replay_debug.trace] [--trace-csv=replay_debug_trace.csv]
#include <cstdio>

#include "txallo/allocator/registry.h"
#include "txallo/common/flags.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

int main(int argc, char** argv) {
  using namespace txallo;
  Flags flags = Flags::Parse(argc, argv);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 4));
  const uint64_t blocks =
      static_cast<uint64_t>(flags.GetInt("blocks", 48));
  const std::string trace_path =
      flags.GetString("trace", "replay_debug.trace");
  const std::string csv_path =
      flags.GetString("trace-csv", "replay_debug_trace.csv");

  workload::EthereumLikeConfig config;
  config.num_blocks = blocks;
  config.txs_per_block = 60;
  config.num_accounts = 2'000;
  config.num_communities = 24;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  config.drift_interval_blocks = blocks / 3;
  workload::EthereumLikeGenerator generator(config);
  const chain::Ledger ledger = generator.GenerateLedger(blocks);

  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), k, 2.0);
  options.registry = &generator.registry();
  auto made =
      allocator::MakeAllocatorFromSpec("txallo-hybrid:global-every=3",
                                       options);
  if (!made.ok()) {
    std::fprintf(stderr, "allocator: %s\n", made.status().ToString().c_str());
    return 1;
  }

  engine::EngineConfig engine_config;
  engine_config.num_shards = k;
  // Tight λ: the backlog spills across ticks, so execution order — not
  // just totals — is what replay has to reproduce.
  engine_config.work.capacity_per_block =
      0.5 * static_cast<double>(config.txs_per_block) / k;
  engine_config.hash_route_unassigned = true;

  // 1. Record under the full pipeline: 2 workers, background rebalances.
  engine::ReplayLog log;
  {
    engine::EngineConfig recording_config = engine_config;
    recording_config.num_threads = 2;
    engine::ParallelEngine engine(recording_config, nullptr);
    engine::PipelineConfig pipeline;
    pipeline.blocks_per_epoch = static_cast<uint32_t>(blocks / 4);
    pipeline.allocator_mode = engine::AllocatorMode::kBackground;
    pipeline.record = &log;
    auto recorded = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                                 &engine, pipeline);
    if (!recorded.ok()) {
      std::fprintf(stderr, "record run: %s\n",
                   recorded.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "recorded %llu committed txs over %zu steps: %zu prepares, %zu "
        "commits, %zu installs\n",
        static_cast<unsigned long long>(recorded->report.sim.committed),
        recorded->steps.size(), log.prepares.size(), log.commits.size(),
        log.installs.size());
  }

  // 2. Persist and reload.
  if (Status saved = engine::SaveReplayLog(log, trace_path); !saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  if (Status dumped = engine::DumpReplayLogCsv(log, csv_path);
      !dumped.ok()) {
    std::fprintf(stderr, "csv dump: %s\n", dumped.ToString().c_str());
    return 1;
  }
  auto loaded = engine::LoadReplayLog(trace_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("trace saved to %s (binary) and %s (CSV dump)\n",
              trace_path.c_str(), csv_path.c_str());

  // 3. Replay under different execution shapes; every one must be
  //    bit-identical (prepare order, 2PC outcomes, step series).
  for (const uint32_t threads : {1u, 4u}) {
    engine::EngineConfig replay_config = engine_config;
    replay_config.num_threads = threads;
    engine::ParallelEngine engine(replay_config, nullptr);
    auto replayed = engine::ReplayRecordedStream(ledger, *loaded, &engine,
                                                 engine::PipelineConfig{});
    if (!replayed.ok()) {
      std::fprintf(stderr, "replay (%u threads): %s\n", threads,
                   replayed.status().ToString().c_str());
      return 1;
    }
    std::printf("replay under %u thread(s) -> bit-identical (%llu "
                "committed)\n",
                threads,
                static_cast<unsigned long long>(
                    replayed->report.sim.committed));
  }

  // 4. The wrong workload is refused, not quietly diverged from.
  workload::EthereumLikeConfig other = config;
  other.seed += 1;
  workload::EthereumLikeGenerator other_generator(other);
  const chain::Ledger other_ledger = other_generator.GenerateLedger(blocks);
  engine::ParallelEngine engine(engine_config, nullptr);
  auto mismatch = engine::ReplayRecordedStream(other_ledger, *loaded, &engine,
                                               engine::PipelineConfig{});
  if (mismatch.ok()) {
    std::fprintf(stderr,
                 "replay against a different ledger unexpectedly passed\n");
    return 1;
  }
  std::printf("replay against a different workload correctly refused:\n  %s\n",
              mismatch.status().ToString().c_str());
  return 0;
}
