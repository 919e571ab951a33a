// Per-step timeline series on the live parallel engine: every strategy in
// --methods streams one shared drifting workload through
// engine::RunReallocatedStream and reports block-level metrics *per epoch
// window* (throughput, cross-shard ratio, allocation cost, overlap) — the
// engine-backed Fig. 9/10 curves, not just end-of-run aggregates.
//
// The allocation schedule is the pipeline's: --alloc-mode=background
// (default) computes each epoch's rebalance on the BackgroundAllocator
// worker while the next epoch executes (install deferred one boundary, the
// deterministic software-pipelining schedule); sync/deferred run it on the
// driver.
//
// Record/replay (engine/replay.h): --record=PATH saves the first run (the
// first streaming method in --methods) as a deterministic trace; every
// other method still runs, unrecorded, as in gauntlet. --replay=PATH
// re-executes a saved trace on
// the same generated workload (pass identical workload flags) and verifies
// bit-identity — threads/alloc-mode may differ from the recorded
// run. The CI smoke records and replays a tiny trace this way to catch
// trace-format or determinism drift.
//
// Account-state backend (src/txallo/state/): --state=1 executes real
// balance transfers with 2PC commit/rollback and per-tick Merkle roots;
// --state-balance tunes the funding level (tight funding produces
// insufficient-balance aborts), --migration-work the per-record λ charge of
// allocation installs. --overrun=1 lets a background rebalance overrun its
// epoch (install deferred to the next boundary it is ready for) instead of
// stalling the driver. --json-out=PATH dumps the deterministic state-
// relevant series (committed/aborted/migrated per step, final Merkle root)
// as JSON — the committed BENCH_state.json snapshot comes from here.
//
// Workload selection (workload/scenario_registry.h): --scenario=SPEC (or
// TXALLO_SCENARIO) streams any registered scenario — "spike:peak-share=0.7",
// "shard-attack:shards=8,target=3", ... — through the same engine loop;
// --scenario=help prints the catalog. The default reproduces this bench's
// historical drifting Ethereum-like workload bit-identically.
//
//   ./build/bench/timeline_series [--methods=a;b] [--k=8] [--eta=2]
//       [--scenario=SPEC]
//       [--blocks=96] [--txs-per-block=120] [--epoch-blocks=12]
//       [--alloc-mode=background|deferred|sync]
//       [--state=0|1] [--state-balance=N] [--migration-work=X]
//       [--overrun=0|1] [--json-out=PATH]
//       [--record=PATH | --replay=PATH]
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "txallo/common/sha256.h"
#include "txallo/engine/pipeline.h"
#include "txallo/engine/replay.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"alloc-mode", "allocator", "blocks", "csv-dir", "epoch-blocks", "eta",
       "json-out", "k", "methods", "migration-work", "overrun", "record",
       "replay", "scenario", "seed", "state", "state-balance",
       "txs-per-block"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  if (bench::HandleScenarioHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 8));
  const double eta = flags.GetDouble("eta", 2.0);
  const int blocks = static_cast<int>(flags.GetInt("blocks", 96));
  const uint64_t txs_per_block =
      static_cast<uint64_t>(flags.GetInt("txs-per-block", 120));
  const uint32_t epoch_blocks = static_cast<uint32_t>(
      flags.GetInt("epoch-blocks", std::max(4, blocks / 8)));
  const bool state_on = flags.GetInt("state", 0) != 0;
  // Tight default: roughly a dozen transfers per account before funds run
  // out, so the abort column is exercised, not identically zero.
  const int64_t state_balance = flags.GetInt("state-balance", 48);
  const double migration_work = flags.GetDouble("migration-work", 1.0);
  const bool overrun = flags.GetInt("overrun", 0) != 0;
  const std::string json_out = flags.GetString("json-out", "");
  auto mode = engine::ParseAllocatorMode(
      flags.GetString("alloc-mode", "background"));
  if (!mode.ok()) {
    std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
    return 1;
  }

  const bench::TraceFlags trace = bench::ResolveTraceFlags(flags);
  if (!trace.record_path.empty() && !trace.replay_path.empty()) {
    std::fprintf(stderr, "--record and --replay are mutually exclusive\n");
    return 1;
  }

  const std::vector<std::string> specs = bench::ResolveMethodSpecs(
      flags, {"txallo-hybrid:global-every=4", "metis", "hash"});

  // One shared ledger: every method streams identical traffic. The shape
  // comes from the bench flags; the pattern comes from --scenario (or
  // TXALLO_SCENARIO). The default spec reproduces this bench's historical
  // inline workload — a drifting Ethereum-like stream — bit-identically, so
  // the committed BENCH_state.json snapshot survives the scenario rewiring.
  workload::ScenarioShape shape;
  shape.num_blocks = static_cast<uint64_t>(blocks);
  shape.txs_per_block = txs_per_block;
  shape.num_accounts = std::min<uint64_t>(scale.num_accounts, 16'000);
  shape.num_communities = static_cast<uint32_t>(
      std::max<uint64_t>(32, shape.num_accounts / 160));
  shape.initial_balance = state_balance;
  shape.seed = seed;
  const std::string scenario_spec = bench::ResolveScenarioSpec(
      flags, "ethereum:drift-interval=" +
                 std::to_string(std::max<uint64_t>(
                     1, static_cast<uint64_t>(blocks) / 3)));
  std::unique_ptr<workload::Scenario> scenario =
      bench::MakeScenarioOrDie(scenario_spec, shape);
  const chain::Ledger ledger = scenario->GenerateLedger(scenario->num_blocks());

  std::printf("==============================================================\n");
  std::printf("Timeline series: per-step engine metrics (k=%u, eta=%g, %d "
              "blocks x %llu txs,\nepochs of %u blocks, alloc-mode=%s)\n"
              "scenario: %s\n",
              k, eta, blocks,
              static_cast<unsigned long long>(txs_per_block), epoch_blocks,
              engine::AllocatorModeName(*mode), scenario_spec.c_str());
  std::printf("==============================================================\n");

  bench::SeriesTable series(
      "Per-step series (one row per epoch window)",
      {"allocator", "step", "blocks", "tput/blk", "cross%", "aborted",
       "migrated", "alloc-s", "wait-s", "installed"});
  bench::SeriesTable summary(
      "Summary per allocator",
      {"allocator", "committed", "tput/blk", "cross%", "aborted", "migrated",
       "epochs", "skipped", "moved", "alloc-s", "wait-s", "overlap%"});

  const auto add_series_rows = [&](const std::string& label,
                                   const engine::PipelineResult& result) {
    for (const engine::StepMetrics& step : result.steps) {
      series.AddRow(
          {label, std::to_string(step.step),
           std::to_string(step.last_block - step.first_block),
           bench::Fmt(step.throughput_per_block, 1),
           bench::Fmt(100.0 * step.cross_shard_ratio, 1),
           std::to_string(step.aborted),
           std::to_string(step.accounts_migrated),
           bench::Fmt(step.alloc_seconds, 4),
           bench::Fmt(step.alloc_wait_seconds, 4),
           step.installed ? "yes" : "no"});
    }
  };

  // Deterministic state-series snapshot (--json-out): per-method logical
  // counters only — no wall-clock fields — so a committed snapshot diffs
  // clean across machines.
  std::string json_methods;
  const auto add_json_method = [&](const std::string& label,
                                   const engine::PipelineResult& result,
                                   engine::ParallelEngine* engine) {
    if (json_out.empty()) return;
    std::string entry;
    entry += "    {\n      \"allocator\": \"" + label + "\",\n";
    entry += "      \"committed\": " +
             std::to_string(result.report.sim.committed) + ",\n";
    entry += "      \"aborted\": " + std::to_string(result.report.aborted) +
             ",\n";
    entry += "      \"accounts_migrated\": " +
             std::to_string(result.report.accounts_migrated) + ",\n";
    entry += "      \"accounts_moved\": " +
             std::to_string(result.accounts_moved) + ",\n";
    entry += "      \"epochs\": " + std::to_string(result.epochs) + ",\n";
    entry += "      \"overrun_boundaries\": " +
             std::to_string(result.overrun_boundaries) + ",\n";
    entry += "      \"final_state_root\": \"";
    if (state_on && engine != nullptr && engine->state() != nullptr) {
      entry += DigestToHex(engine->state()->GlobalRoot());
    }
    entry += "\",\n      \"steps\": [";
    for (size_t i = 0; i < result.steps.size(); ++i) {
      const engine::StepMetrics& step = result.steps[i];
      if (i > 0) entry += ",";
      entry += "\n        {\"step\": " + std::to_string(step.step) +
               ", \"committed\": " + std::to_string(step.committed) +
               ", \"aborted\": " + std::to_string(step.aborted) +
               ", \"accounts_migrated\": " +
               std::to_string(step.accounts_migrated) + "}";
    }
    entry += "\n      ]\n    }";
    if (!json_methods.empty()) json_methods += ",\n";
    json_methods += entry;
  };
  const auto write_json = [&]() {
    if (json_out.empty()) return;
    std::ofstream file(json_out, std::ios::trunc);
    file << "{\n  \"bench\": \"timeline_series\",\n";
    file << "  \"k\": " << k << ",\n";
    file << "  \"blocks\": " << blocks << ",\n";
    file << "  \"txs_per_block\": " << txs_per_block << ",\n";
    file << "  \"epoch_blocks\": " << epoch_blocks << ",\n";
    file << "  \"seed\": " << seed << ",\n";
    file << "  \"state_enabled\": " << (state_on ? "true" : "false") << ",\n";
    file << "  \"initial_balance\": " << state_balance << ",\n";
    file << "  \"migration_work_per_account\": " << migration_work << ",\n";
    file << "  \"methods\": [\n" << json_methods << "\n  ]\n}\n";
    std::printf("wrote state series snapshot to %s\n", json_out.c_str());
  };

  if (!trace.replay_path.empty()) {
    // Replay mode: the saved trace stands in for the allocator; the
    // workload flags must regenerate the recorded stream (the trace's
    // ledger fingerprint is verified) while the thread count is free to
    // differ — that is the point of the drift check.
    auto loaded = engine::LoadReplayLog(trace.replay_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--replay: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    engine::EngineConfig engine_config = bench::MakeEngineConfig(
        scale, k, eta, 1.3 * static_cast<double>(txs_per_block) / k);
    engine_config.hash_route_unassigned = true;
    engine_config.state.enabled = state_on;
    engine_config.state.initial_balance = scenario->initial_balance();
    engine_config.state.migration_work_per_account = migration_work;
    engine::ParallelEngine engine(engine_config, nullptr);
    engine::PipelineConfig pipeline;
    // Only enforced when --scenario was given explicitly: the trace's own
    // ledger fingerprint is always checked, but a recorded spec from an
    // older flag set need not match this binary's default spec rendering.
    if (flags.Has("scenario")) pipeline.workload_spec = scenario_spec;
    auto result =
        engine::ReplayRecordedStream(ledger, *loaded, &engine, pipeline);
    if (!result.ok()) {
      std::fprintf(stderr, "--replay: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    add_series_rows("replay", *result);
    add_json_method("replay", *result, &engine);
    write_json();
    series.Print();
    const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
    series.WriteCsv(csv_dir, "timeline_series.csv");
    std::printf(
        "\nreplay of '%s': bit-identical (%zu prepares, %zu commits, %zu "
        "installs, %zu steps)\n",
        trace.replay_path.c_str(), loaded->prepares.size(),
        loaded->commits.size(), loaded->installs.size(),
        loaded->steps.size());
    return 0;
  }

  bool recorded = false;
  for (const std::string& spec : specs) {
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), k, eta);
    options.registry = &scenario->registry();
    options.seed = seed;
    auto made = allocator::MakeAllocatorFromSpec(spec, options);
    if (!made.ok()) {
      std::fprintf(stderr, "allocator '%s': %s\n", spec.c_str(),
                   made.status().ToString().c_str());
      return 1;
    }
    allocator::OnlineAllocator* online = (*made)->AsOnline();
    if (online == nullptr) {
      std::fprintf(stderr, "allocator '%s' is one-shot only; skipping\n",
                   spec.c_str());
      continue;
    }

    engine::EngineConfig engine_config = bench::MakeEngineConfig(
        scale, k, eta, 1.3 * static_cast<double>(txs_per_block) / k);
    engine_config.hash_route_unassigned = true;
    engine_config.state.enabled = state_on;
    engine_config.state.initial_balance = scenario->initial_balance();
    engine_config.state.migration_work_per_account = migration_work;
    engine::ParallelEngine engine(engine_config, nullptr);
    engine::ReplayLog log;
    engine::PipelineConfig pipeline;
    pipeline.blocks_per_epoch = epoch_blocks;
    pipeline.allocator_mode = *mode;
    pipeline.allow_epoch_overrun = overrun;
    pipeline.workload_spec = scenario_spec;
    // One trace file = one run: only the first run records.
    const bool record = !trace.record_path.empty() && !recorded;
    if (record) pipeline.record = &log;
    auto result =
        engine::RunReallocatedStream(ledger, online, &engine, pipeline);
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline under '%s' failed: %s\n", spec.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    if (record) {
      Status saved = engine::SaveReplayLog(log, trace.record_path);
      if (!saved.ok()) {
        std::fprintf(stderr, "--record: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("recorded trace of '%s' to %s (%zu prepares, %zu commits, "
                  "%zu installs, %zu steps)\n",
                  spec.c_str(), trace.record_path.c_str(),
                  log.prepares.size(), log.commits.size(),
                  log.installs.size(), log.steps.size());
      recorded = true;
    }

    add_series_rows(spec, *result);
    add_json_method(spec, *result, &engine);
    const double cross_pct =
        result->report.sim.submitted == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(result->report.sim.cross_shard_submitted) /
                  static_cast<double>(result->report.sim.submitted);
    summary.AddRow({spec, std::to_string(result->report.sim.committed),
                    bench::Fmt(result->report.sim.throughput_per_block, 1),
                    bench::Fmt(cross_pct, 1),
                    std::to_string(result->report.aborted),
                    std::to_string(result->report.accounts_migrated),
                    std::to_string(result->epochs),
                    std::to_string(result->overrun_boundaries),
                    std::to_string(result->accounts_moved),
                    bench::Fmt(result->alloc_seconds, 4),
                    bench::Fmt(result->alloc_wait_seconds, 4),
                    bench::Fmt(100.0 * result->alloc_overlap_ratio, 1)});
  }

  write_json();
  series.Print();
  summary.Print();
  const std::string csv_dir = flags.GetString("csv-dir", "bench_out");
  series.WriteCsv(csv_dir, "timeline_series.csv");
  summary.WriteCsv(csv_dir, "timeline_series_summary.csv");
  std::printf(
      "\noverlap%% = share of allocation wall time hidden behind execution "
      "(alloc-mode=background\noverlaps each epoch's rebalance with the next "
      "epoch's ticks; sync/deferred stall the driver).\n");
  return 0;
}
