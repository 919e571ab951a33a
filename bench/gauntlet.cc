// The scenario gauntlet: every allocation strategy in --methods runs every
// workload in --scenarios through the open-loop pipeline with the
// account-state backend on, and each (scenario, allocator) cell reports the
// numbers that separate strategies under hostile traffic — committed
// throughput, cross-shard share, state aborts, and the p99 end-to-end
// latency in ticks. The defaults cover the full allocator registry against
// the full scenario registry, so one run answers "which strategy survives
// which pattern".
//
// Every reported number is a function of the logical clock (tick-based
// latency, counter deltas, Merkle roots), so the table is bit-identical
// across --threads counts. --json-out writes the integer-only snapshot
// committed as BENCH_gauntlet.json; CI regenerates it under a non-default
// thread count and byte-diffs it.
//
// --record / --replay follow bench::StreamDriver's rule. The trace meta
// names the cell's scenario spec (workload_spec), so --replay regenerates
// the workload without being told: pass the same shape flags.
//
//   ./build/bench/gauntlet [--methods=a;b] [--scenarios=x;y]
//       [--k=8] [--eta=2] [--blocks=48] [--txs-per-block=96]
//       [--accounts=4000] [--communities=40] [--balance=48] [--seed=42]
//       [--epoch-blocks=12] [--service-rate=120] [--offered-load=X]
//       [--state=0|1] [--json-out=PATH]
//       [--csv-dir=DIR] [--record=PATH | --replay=PATH]
//
// --scenario=help prints the scenario catalog, --allocator=help the
// allocator catalog. Both lists are ';'-separated (specs contain commas).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.h"

namespace {

using namespace txallo;

struct GauntletCell {
  std::string scenario;
  std::string allocator;
  uint64_t ticks = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t cross_shard_submitted = 0;
  uint64_t dropped = 0;
  uint64_t expired = 0;
  uint64_t accounts_migrated = 0;
  uint64_t latency_p50 = 0;
  uint64_t latency_p99 = 0;
  uint64_t latency_max = 0;
  std::string state_root_hex;  // Empty when the state backend is off.
};

GauntletCell MakeCell(const std::string& scenario_spec,
                      const std::string& allocator_spec,
                      const bench::StreamDriver::Run& run) {
  const engine::PipelineResult& result = run.result;
  GauntletCell cell;
  cell.scenario = scenario_spec;
  cell.allocator = allocator_spec;
  cell.ticks = result.report.sim.blocks_elapsed;
  cell.submitted = result.report.sim.submitted;
  cell.committed = result.report.sim.committed;
  cell.aborted = result.report.aborted;
  cell.cross_shard_submitted = result.report.sim.cross_shard_submitted;
  cell.dropped = result.admission.dropped();
  cell.expired = result.admission.expired;
  cell.accounts_migrated = result.report.accounts_migrated;
  cell.latency_p50 = result.e2e_latency_ticks.Percentile(50.0);
  cell.latency_p99 = result.e2e_latency_ticks.Percentile(99.0);
  cell.latency_max = result.e2e_latency_ticks.max();
  cell.state_root_hex = run.StateRootHex();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"allocator", "balance", "blocks", "communities", "csv-dir",
       "epoch-blocks", "eta", "json-out", "k", "methods", "offered-load",
       "record", "replay", "scenario", "scenarios", "seed", "service-rate",
       "state", "txs-per-block"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  if (bench::HandleScenarioHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 8));
  const double eta = flags.GetDouble("eta", 2.0);
  const uint32_t epoch_blocks =
      static_cast<uint32_t>(flags.GetInt("epoch-blocks", 12));
  const double service_rate = flags.GetDouble("service-rate", 120.0);
  const bool state_on = flags.GetInt("state", 1) != 0;
  const std::string json_out = flags.GetString("json-out", "");

  // The shared experiment shape. Deliberately NOT derived from the scale
  // presets: the committed BENCH_gauntlet.json must not move when
  // TXALLO_SCALE / TXALLO_ACCOUNTS retune the figure benches. The tight
  // default balance makes insufficient-balance aborts part of the score.
  workload::ScenarioShape shape;
  shape.num_blocks = static_cast<uint64_t>(flags.GetInt("blocks", 48));
  shape.txs_per_block =
      static_cast<uint64_t>(flags.GetInt("txs-per-block", 96));
  shape.num_accounts = static_cast<uint64_t>(flags.GetInt("accounts", 4'000));
  shape.num_communities =
      static_cast<uint32_t>(flags.GetInt("communities", 40));
  shape.initial_balance = flags.GetInt("balance", 48);
  shape.seed = seed;

  // Offered load: just under the service rate by default, so queueing (and
  // therefore p99 separation between allocators) is visible without the
  // mempool shedding everything.
  Result<double> offered = bench::ResolveOfferedLoad(flags, 100.0);
  if (!offered.ok()) {
    std::fprintf(stderr, "%s\n", offered.status().ToString().c_str());
    return 1;
  }

  bench::StreamDriver driver(flags);

  // Default grid: the full registries. ';'-separated because both spec
  // languages use ',' inside a spec. A replay runs the trace's one cell.
  std::vector<std::string> scenario_specs;
  if (const engine::ReplayLog* trace = driver.replay()) {
    if (trace->meta.workload_spec.empty()) {
      std::fprintf(stderr,
                   "--replay: trace has no workload_spec (not a gauntlet "
                   "trace); replay it with the bench that recorded it\n");
      return 1;
    }
    scenario_specs.push_back(trace->meta.workload_spec);
  } else if (flags.Has("scenarios")) {
    scenario_specs = bench::SplitList(flags.GetString("scenarios", ""), ';');
  } else {
    const std::string single = bench::ResolveScenarioSpec(flags, "");
    if (!single.empty()) {
      scenario_specs.push_back(single);
    } else {
      scenario_specs = workload::RegisteredScenarioNames();
    }
  }
  std::vector<std::string> method_specs =
      bench::ResolveMethodSpecs(flags, allocator::RegisteredNames());

  engine::EngineConfig engine_config =
      bench::MakeEngineConfig(scale, k, eta, service_rate / k);
  engine_config.state.enabled = state_on;
  engine_config.state.initial_balance = shape.initial_balance;
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = epoch_blocks;
  pipeline.ingest_mode = engine::IngestMode::kOpenLoop;
  pipeline.open_loop.offered_load = *offered;
  pipeline.open_loop.dispatch_per_tick =
      static_cast<uint32_t>(std::ceil(service_rate));

  bench::SeriesTable table(
      "Gauntlet: one row per (scenario, allocator) cell",
      {"scenario", "allocator", "ticks", "committed", "tput/tick", "cross%",
       "aborted", "dropped", "p50", "p99", "max"});
  std::vector<GauntletCell> cells;
  const auto add_cell = [&](const std::string& scenario_spec,
                            const std::string& allocator,
                            const bench::StreamDriver::Run& run) {
    const GauntletCell cell = MakeCell(scenario_spec, allocator, run);
    const double tput =
        cell.ticks == 0
            ? 0.0
            : static_cast<double>(cell.committed) /
                  static_cast<double>(cell.ticks);
    table.AddRow({cell.scenario, cell.allocator, std::to_string(cell.ticks),
                  std::to_string(cell.committed), bench::Fmt(tput, 1),
                  bench::Fmt(bench::CrossShardPercent(
                                 cell.cross_shard_submitted, cell.submitted),
                             1),
                  std::to_string(cell.aborted),
                  std::to_string(cell.dropped),
                  std::to_string(cell.latency_p50),
                  std::to_string(cell.latency_p99),
                  std::to_string(cell.latency_max)});
    cells.push_back(cell);
  };

  for (const std::string& scenario_spec : scenario_specs) {
    std::unique_ptr<workload::Scenario> scenario =
        bench::MakeScenarioOrDie(scenario_spec, shape);
    const chain::Ledger ledger =
        scenario->GenerateLedger(scenario->num_blocks());
    pipeline.workload_spec = scenario_spec;
    if (driver.replay() != nullptr) {
      add_cell(scenario_spec, "replay",
               driver.Replay(ledger, engine_config, pipeline));
      continue;
    }
    for (const std::string& method_spec : method_specs) {
      add_cell(scenario_spec, method_spec,
               driver.RunCell(method_spec,
                              method_spec + " on " + scenario_spec, ledger,
                              scenario->registry(), seed, engine_config,
                              pipeline));
    }
  }

  if (!json_out.empty()) {
    std::ofstream file(json_out, std::ios::trunc);
    file << "{\n  \"bench\": \"gauntlet\",\n";
    file << "  \"k\": " << k << ",\n";
    file << "  \"blocks\": " << shape.num_blocks << ",\n";
    file << "  \"txs_per_block\": " << shape.txs_per_block << ",\n";
    file << "  \"accounts\": " << shape.num_accounts << ",\n";
    file << "  \"communities\": " << shape.num_communities << ",\n";
    file << "  \"initial_balance\": " << shape.initial_balance << ",\n";
    file << "  \"epoch_blocks\": " << epoch_blocks << ",\n";
    file << "  \"offered_load_x10\": "
         << static_cast<uint64_t>(*offered * 10.0 + 0.5) << ",\n";
    file << "  \"seed\": " << seed << ",\n";
    file << "  \"state_enabled\": " << (state_on ? "true" : "false") << ",\n";
    file << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const GauntletCell& cell = cells[i];
      if (i > 0) file << ",\n";
      file << "    {\n";
      file << "      \"scenario\": \"" << cell.scenario << "\",\n";
      file << "      \"allocator\": \"" << cell.allocator << "\",\n";
      file << "      \"ticks\": " << cell.ticks << ",\n";
      file << "      \"submitted\": " << cell.submitted << ",\n";
      file << "      \"committed\": " << cell.committed << ",\n";
      file << "      \"aborted\": " << cell.aborted << ",\n";
      file << "      \"cross_shard_submitted\": " << cell.cross_shard_submitted
           << ",\n";
      file << "      \"dropped\": " << cell.dropped << ",\n";
      file << "      \"expired\": " << cell.expired << ",\n";
      file << "      \"accounts_migrated\": " << cell.accounts_migrated
           << ",\n";
      file << "      \"latency_p50\": " << cell.latency_p50 << ",\n";
      file << "      \"latency_p99\": " << cell.latency_p99 << ",\n";
      file << "      \"latency_max\": " << cell.latency_max << ",\n";
      file << "      \"state_root\": \"" << cell.state_root_hex << "\"\n";
      file << "    }";
    }
    file << "\n  ]\n}\n";
    std::printf("wrote gauntlet snapshot to %s\n", json_out.c_str());
  }
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"), "gauntlet.csv");
  std::printf(
      "\ncross%% = cross-shard share of submitted transactions; p50/p99/max "
      "are end-to-end\nlatency in ticks (commit tick - submit tick). Every "
      "column is a function of the\nlogical clock: identical across "
      "--threads.\n");
  return 0;
}
