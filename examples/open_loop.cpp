// Open-loop latency scenario: the same transaction stream offered at a
// fixed rate (transactions per engine tick) to two allocation strategies —
// naive hash sharding vs TxAllo's hybrid schedule — through the mempool
// front-end. Arrivals the engine cannot keep up with queue in the
// pool, so the tail latency difference between the mappings becomes
// directly visible as p99 end-to-end ticks, something closed-loop driving
// (one block per tick, arrivals tracking service) can never show.
//
// Every number printed is a pure function of (workload seed, flags): the
// offered-load schedule, fees, admission decisions and latency histograms
// live on the engine's logical clock, so reruns — with any engine thread
// count — print byte-identical output.
//
//   ./build/examples/open_loop [--load=9] [--service=12] [--k=6] [--eta=2]
//       [--blocks=48] [--dispatch-per-tick=N] [--hybrid=SPEC]
#include <cstdio>
#include <string>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/common/flags.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

int main(int argc, char** argv) {
  using namespace txallo;
  Flags flags = Flags::Parse(argc, argv);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 6));
  const double eta = flags.GetDouble("eta", 2.0);
  const double load = flags.GetDouble("load", 9.0);
  const uint64_t blocks = static_cast<uint64_t>(flags.GetInt("blocks", 48));

  workload::EthereumLikeConfig config;
  config.txs_per_block = 40;
  config.num_blocks = blocks;
  config.num_accounts = 2'000;
  config.num_communities = 40;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  workload::EthereumLikeGenerator generator(config);
  const chain::Ledger ledger = generator.GenerateLedger(blocks);

  // Raw service of `service` tx/tick against an offer of `load`: the
  // *effective* service is lower (cross-shard transactions consume capacity
  // on every involved shard), so loads near `service` queue, and how much
  // is the mapping's doing.
  const double service = flags.GetDouble("service", 12.0);
  engine::EngineConfig engine_config;
  engine_config.num_shards = k;
  engine_config.work.eta = eta;
  engine_config.work.capacity_per_block = service / k;
  engine_config.hash_route_unassigned = true;

  std::printf("open-loop ingest: %llu txs offered at %.1f tx/tick, k=%u, "
              "raw engine service %.1f tx/tick\n\n",
              static_cast<unsigned long long>(ledger.num_transactions()),
              load, k, service);
  std::printf("%-30s %8s %8s %8s %8s %8s\n", "allocator", "ticks", "p50",
              "p99", "p99.9", "dropped");

  int failures = 0;
  for (const std::string& spec :
       {std::string("hash"),
        flags.GetString("hybrid", "txallo-hybrid:global-every=4")}) {
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), k, eta);
    options.registry = &generator.registry();
    auto made = allocator::MakeAllocatorFromSpec(spec, options);
    if (!made.ok()) {
      std::fprintf(stderr, "allocator '%s': %s\n", spec.c_str(),
                   made.status().ToString().c_str());
      return 1;
    }
    engine::ParallelEngine engine(engine_config, nullptr);
    engine::PipelineConfig pipeline;
    pipeline.blocks_per_epoch = 12;
    pipeline.ingest_mode = engine::IngestMode::kOpenLoop;
    pipeline.open_loop.offered_load = load;
    pipeline.open_loop.dispatch_per_tick =
        static_cast<uint32_t>(flags.GetInt("dispatch-per-tick", 0));
    auto result = engine::RunReallocatedStream(ledger, (*made)->AsOnline(),
                                               &engine, pipeline);
    if (!result.ok()) {
      std::fprintf(stderr, "'%s' failed: %s\n", spec.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const common::Histogram& latency = result->e2e_latency_ticks;
    const mempool::AdmissionStats& admission = result->admission;
    std::printf("%-30s %8llu %8llu %8llu %8llu %8llu\n", spec.c_str(),
                static_cast<unsigned long long>(result->report.sim.blocks_elapsed),
                static_cast<unsigned long long>(latency.Percentile(50.0)),
                static_cast<unsigned long long>(latency.Percentile(99.0)),
                static_cast<unsigned long long>(latency.Percentile(99.9)),
                static_cast<unsigned long long>(
                    admission.dropped_capacity +
                    admission.dropped_account_pending +
                    admission.dropped_account_rate +
                    admission.dropped_backpressure));
    // Smoke contract: every committed transaction carries a latency sample
    // and nothing vanished (no drops configured at these defaults).
    if (latency.count() != result->report.sim.committed ||
        result->report.sim.committed == 0) {
      std::fprintf(stderr, "'%s': latency accounting broken\n", spec.c_str());
      ++failures;
    }
  }

  std::printf("\nLatency is commit tick minus submit tick. The two rows "
              "differ only in the\naccount-to-shard mapping: the gap is the "
              "allocator's effect on queueing delay\nunder identical "
              "offered load.\n");
  return failures == 0 ? 0 : 1;
}
