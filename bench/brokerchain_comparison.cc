// Extension bench: TxAllo vs "METIS + brokers" (a BrokerChain-flavored
// configuration, paper §II-C). BrokerChain keeps METIS as its backbone
// allocator and neutralizes cross-shard transactions through replicated
// broker accounts; this bench asks whether TxAllo's allocation advantage
// survives once the baseline gets that overlay — and what TxAllo itself
// gains from the same overlay.
#include <cstdio>

#include "common/bench_common.h"
#include "txallo/baselines/broker.h"
#include "txallo/baselines/metis/partitioner.h"
#include "txallo/core/global.h"

int main(int argc, char** argv) {
  using namespace txallo;
  bench::Flags flags = bench::ParseBenchFlags(argc, argv,
      {"brokers", "csv-dir", "eta", "k", "seed"});
  bench::BenchScale scale = bench::ResolveBenchScaleOrExit(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bench::Fixture fixture(scale, seed);
  bench::PrintRunBanner(
      "Extension: TxAllo vs BrokerChain-style METIS+brokers", scale, fixture,
      seed);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 20));
  const double eta = flags.GetDouble("eta", 4.0);
  const uint32_t num_brokers =
      static_cast<uint32_t>(flags.GetInt("brokers", 16));

  alloc::AllocationParams params = fixture.ParamsFor(k, eta);
  auto txallo_alloc = core::RunGlobalTxAllo(fixture.graph(),
                                            fixture.node_order(), params);
  auto metis_alloc = baselines::metis::PartitionGraph(fixture.graph(), k);
  if (!txallo_alloc.ok() || !metis_alloc.ok()) {
    std::fprintf(stderr, "allocation failed\n");
    return 1;
  }
  auto brokers =
      baselines::SelectBrokersByActivity(fixture.graph(), num_brokers);
  baselines::BrokerOptions broker_options;

  bench::SeriesTable table(
      "k=" + std::to_string(k) + ", eta=" + bench::Fmt(eta, 0) + ", " +
          std::to_string(num_brokers) + " brokers (most active accounts)",
      {"configuration", "gamma*", "Lambda/lambda", "zeta(avg)",
       "rho/lambda"});

  auto add_row = [&](const char* name,
                     const Result<alloc::EvaluationReport>& report) {
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   report.status().ToString().c_str());
      std::exit(1);
    }
    table.AddRow({name, bench::Fmt(report->cross_shard_ratio),
                  bench::Fmt(report->normalized_throughput, 2),
                  bench::Fmt(report->avg_latency_blocks, 2),
                  bench::Fmt(report->normalized_workload_stddev, 2)});
  };

  auto txs = fixture.ledger().AllTransactions();
  add_row("TxAllo, no brokers",
          alloc::EvaluateAllocation(txs, *txallo_alloc, params));
  add_row("METIS, no brokers",
          alloc::EvaluateAllocation(txs, *metis_alloc, params));
  add_row("METIS + brokers (BrokerChain-style)",
          baselines::EvaluateWithBrokers(txs, *metis_alloc, params, brokers,
                                         broker_options));
  add_row("TxAllo + brokers",
          baselines::EvaluateWithBrokers(txs, *txallo_alloc, params, brokers,
                                         broker_options));
  table.Print();
  table.WriteCsv(flags.GetString("csv-dir", "bench_out"),
                 "brokerchain_comparison.csv");
  std::printf(
      "\n(*) gamma counts transactions that still span multiple shards "
      "after broker wildcarding.\nBrokered rows price those at "
      "broker_cross_cost=%.1f per shard instead of eta, plus a\n%.0f-block "
      "relay hop in the latency column.\n",
      broker_options.broker_cross_cost,
      broker_options.broker_latency_blocks);
  return 0;
}
