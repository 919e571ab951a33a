// Open-loop latency/load curves on the live parallel engine: every method
// in --methods runs the same generated workload through the mempool
// front-end (engine::IngestMode::kOpenLoop) at each offered load in
// --loads, and reports end-to-end latency percentiles (commit tick − submit
// tick), admission drops and queue depths — the classic open-system
// latency-vs-throughput knee that closed-loop driving (one block per tick)
// can never show, because there arrivals automatically track service.
//
// The arrival schedule, fee ordering, admission decisions and latency
// histograms are all functions of the logical clock, so every number here
// is bit-identical across --threads counts; the committed
// BENCH_open_loop.json snapshot is diffed byte-for-byte in CI against a
// fresh run to pin that property.
//
// Service capacity: the engine executes ~--service-rate transactions per
// tick in aggregate (capacity_per_block = service-rate / k per shard), and
// the mempool dispatches at most --dispatch-per-tick (default: the service
// rate) each tick — so offered loads below the service rate measure base
// latency, loads above it measure queueing and, once --capacity is hit,
// admission shedding.
//
// --record / --replay follow bench::StreamDriver's rule: the first method
// at the first load in --loads is recorded, and its trace meta carries the
// offered load and mempool parameters the replay runs under.
//
//   ./build/bench/open_loop_latency [--methods=a;b] [--loads=60,100,140]
//       [--scenario=SPEC] (workload/scenario_registry.h; --scenario=help)
//       [--offered-load=X | TXALLO_OFFERED_LOAD=X] [--k=8] [--eta=2]
//       [--blocks=64] [--txs-per-block=96] [--epoch-blocks=16]
//       [--service-rate=120] [--dispatch-per-tick=N] [--capacity=N]
//       [--pending-limit=N] [--rate-limit=N] [--ttl=N]
//       [--policy=reject|block]
//       [--json-out=PATH] [--record=PATH | --replay=PATH]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_common.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"allocator", "blocks", "capacity", "csv-dir", "dispatch-per-tick",
       "epoch-blocks", "eta", "json-out", "k", "loads", "methods",
       "offered-load", "pending-limit", "policy", "rate-limit", "record",
       "replay", "scenario", "seed", "service-rate", "ttl", "txs-per-block"});
  if (bench::HandleAllocatorHelp(flags)) return 0;
  if (bench::HandleScenarioHelp(flags)) return 0;
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 8));
  const double eta = flags.GetDouble("eta", 2.0);
  const int blocks = static_cast<int>(flags.GetInt("blocks", 64));
  const uint64_t txs_per_block =
      static_cast<uint64_t>(flags.GetInt("txs-per-block", 96));
  const uint32_t epoch_blocks =
      static_cast<uint32_t>(flags.GetInt("epoch-blocks", 16));
  const double service_rate = flags.GetDouble("service-rate", 120.0);
  const uint32_t dispatch_per_tick = static_cast<uint32_t>(flags.GetInt(
      "dispatch-per-tick", static_cast<int64_t>(std::ceil(service_rate))));
  const std::string json_out = flags.GetString("json-out", "");

  mempool::MempoolConfig mempool_config;
  mempool_config.capacity =
      static_cast<size_t>(flags.GetInt("capacity", 1 << 16));
  mempool_config.account_pending_limit =
      static_cast<uint32_t>(flags.GetInt("pending-limit", 0));
  mempool_config.account_rate_limit =
      static_cast<uint32_t>(flags.GetInt("rate-limit", 0));
  mempool_config.ttl_ticks = static_cast<uint64_t>(flags.GetInt("ttl", 0));
  const std::string policy = flags.GetString("policy", "reject");
  if (policy == "block") {
    mempool_config.policy = mempool::AdmissionPolicy::kBlock;
  } else if (policy != "reject") {
    std::fprintf(stderr, "--policy=%s: expected reject or block\n",
                 policy.c_str());
    return 1;
  }

  // Offered loads: a single --offered-load / TXALLO_OFFERED_LOAD overrides
  // the --loads sweep (the CI smoke pins one point that way).
  Result<double> single = bench::ResolveOfferedLoad(flags, 0.0);
  if (!single.ok()) {
    std::fprintf(stderr, "%s\n", single.status().ToString().c_str());
    return 1;
  }
  std::vector<double> loads;
  if (*single > 0.0) {
    loads.push_back(*single);
  } else {
    for (const std::string& clause :
         bench::SplitList(flags.GetString("loads", "60,100,140"))) {
      Result<double> load = bench::ParsePositiveRate("--loads", clause);
      if (!load.ok()) {
        std::fprintf(stderr, "%s\n", load.status().ToString().c_str());
        return 1;
      }
      loads.push_back(*load);
    }
  }

  bench::StreamDriver driver(flags);
  const std::vector<std::string> specs = bench::ResolveMethodSpecs(
      flags, {"txallo-hybrid:global-every=4", "metis", "hash"});

  // One shared ledger: every (load, method) point offers identical traffic,
  // only the pacing differs. --scenario (or TXALLO_SCENARIO) swaps the
  // pattern; the default "ethereum" spec reproduces this bench's historical
  // inline workload bit-identically, keeping BENCH_open_loop.json stable.
  const workload::ScenarioShape shape = bench::EngineBenchShape(
      scale, static_cast<uint64_t>(blocks), txs_per_block, seed);
  const std::string scenario_spec =
      bench::ResolveScenarioSpec(flags, "ethereum");
  std::unique_ptr<workload::Scenario> scenario =
      bench::MakeScenarioOrDie(scenario_spec, shape);
  const chain::Ledger ledger = scenario->GenerateLedger(scenario->num_blocks());

  std::printf("==============================================================\n");
  std::printf("Open-loop latency vs offered load (k=%u, eta=%g, %llu txs,\n"
              "service ~%g tx/tick, dispatch cap %u/tick, epochs of %u "
              "ticks, policy=%s)\nscenario: %s\n",
              k, eta,
              static_cast<unsigned long long>(ledger.num_transactions()),
              service_rate, dispatch_per_tick, epoch_blocks, policy.c_str(),
              scenario_spec.c_str());
  std::printf("==============================================================\n");

  bench::SeriesTable table(
      "Latency/load curve (one row per offered load x method)",
      {"allocator", "load", "ticks", "committed", "dropped", "expired",
       "peak-depth", "p50", "p99", "p99.9", "max", "mean"});

  std::string json_points;
  const auto add_point = [&](const std::string& label, double load,
                             const engine::PipelineResult& result) {
    const engine::EngineReport& report = result.report;
    const mempool::AdmissionStats& admission = result.admission;
    const common::Histogram& latency = result.e2e_latency_ticks;
    const uint64_t dropped = admission.dropped();
    table.AddRow({label, bench::Fmt(load, 1),
                  std::to_string(report.sim.blocks_elapsed),
                  std::to_string(report.sim.committed),
                  std::to_string(dropped), std::to_string(admission.expired),
                  std::to_string(admission.peak_depth),
                  std::to_string(latency.Percentile(50.0)),
                  std::to_string(latency.Percentile(99.0)),
                  std::to_string(latency.Percentile(99.9)),
                  std::to_string(latency.max()),
                  bench::Fmt(latency.Mean(), 2)});
    if (json_out.empty()) return;
    // Integer-only fields: the snapshot must diff byte-identically across
    // machines and thread counts.
    std::string entry = "    {\n";
    entry += "      \"allocator\": \"" + label + "\",\n";
    entry += "      \"offered_load_x10\": " +
             std::to_string(static_cast<uint64_t>(load * 10.0 + 0.5)) + ",\n";
    entry += "      \"ticks\": " + std::to_string(report.sim.blocks_elapsed) +
             ",\n";
    entry += "      \"committed\": " + std::to_string(report.sim.committed) +
             ",\n";
    entry += "      \"aborted\": " + std::to_string(report.aborted) + ",\n";
    entry += "      \"submitted\": " + std::to_string(admission.submitted) +
             ",\n";
    entry += "      \"admitted\": " + std::to_string(admission.admitted) +
             ",\n";
    entry += "      \"dropped\": " + std::to_string(dropped) + ",\n";
    entry += "      \"deferred\": " + std::to_string(admission.deferred) +
             ",\n";
    entry += "      \"expired\": " + std::to_string(admission.expired) + ",\n";
    entry += "      \"peak_depth\": " + std::to_string(admission.peak_depth) +
             ",\n";
    entry += "      \"latency_count\": " + std::to_string(latency.count()) +
             ",\n";
    entry += "      \"latency_p50\": " +
             std::to_string(latency.Percentile(50.0)) + ",\n";
    entry += "      \"latency_p99\": " +
             std::to_string(latency.Percentile(99.0)) + ",\n";
    entry += "      \"latency_p999\": " +
             std::to_string(latency.Percentile(99.9)) + ",\n";
    entry += "      \"latency_max\": " + std::to_string(latency.max()) + "\n";
    entry += "    }";
    if (!json_points.empty()) json_points += ",\n";
    json_points += entry;
  };

  engine::EngineConfig engine_config =
      bench::MakeEngineConfig(scale, k, eta, service_rate / k);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = epoch_blocks;
  pipeline.workload_spec = scenario_spec;
  pipeline.ingest_mode = engine::IngestMode::kOpenLoop;
  pipeline.open_loop.dispatch_per_tick = dispatch_per_tick;
  pipeline.open_loop.mempool = mempool_config;
  if (const engine::ReplayLog* trace = driver.replay()) {
    add_point("replay", trace->meta.offered_load,
              driver.Replay(ledger, engine_config, pipeline).result);
  } else {
    for (const std::string& spec : specs) {
      for (double load : loads) {
        pipeline.open_loop.offered_load = load;
        add_point(spec, load,
                  driver.RunCell(spec, spec + " @ " + bench::Fmt(load, 1) +
                                           " tx/tick",
                                 ledger, scenario->registry(), seed,
                                 engine_config, pipeline)
                      .result);
      }
    }
  }

  if (!json_out.empty()) {
    std::ofstream file(json_out, std::ios::trunc);
    file << "{\n  \"bench\": \"open_loop_latency\",\n";
    file << "  \"k\": " << k << ",\n";
    file << "  \"blocks\": " << blocks << ",\n";
    file << "  \"txs_per_block\": " << txs_per_block << ",\n";
    file << "  \"epoch_blocks\": " << epoch_blocks << ",\n";
    file << "  \"dispatch_per_tick\": " << dispatch_per_tick << ",\n";
    file << "  \"seed\": " << seed << ",\n";
    file << "  \"points\": [\n" << json_points << "\n  ]\n}\n";
    std::printf("wrote open-loop snapshot to %s\n", json_out.c_str());
  }
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                 "open_loop_latency.csv");
  std::printf(
      "\nLatency is end-to-end in ticks (commit tick − submit tick), exact "
      "nearest-rank\npercentiles over every committed transaction. Loads "
      "above the service rate pile\ndelay into the mempool until capacity "
      "or per-account limits shed it.\n");
  return 0;
}
