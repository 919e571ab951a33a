// Ethereum-replay scenario: generate a realistic (long-tail, hub-heavy,
// community-structured) transaction trace — or load a real Ethereum-ETL
// CSV extract — and compare all four allocation methods on it.
//
//   ./build/examples/ethereum_replay [--txs=N] [--k=K] [--eta=E]
//   ./build/examples/ethereum_replay --csv=path/to/transactions.csv
#include <cstdio>

#include "txallo/alloc/metrics.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/baselines/metis/partitioner.h"
#include "txallo/baselines/shard_scheduler.h"
#include "txallo/common/flags.h"
#include "txallo/common/stopwatch.h"
#include "txallo/core/global.h"
#include "txallo/graph/builder.h"
#include "txallo/workload/dataset.h"
#include "txallo/workload/ethereum_like.h"

int main(int argc, char** argv) {
  using namespace txallo;
  Flags flags = Flags::ParseOrExit(argc, argv,
      {"accounts", "csv", "eta", "k", "seed", "txs"});
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 16));
  const double eta = flags.GetDouble("eta", 4.0);

  // --- Obtain a trace: real CSV if given, synthetic otherwise. ---
  chain::Ledger ledger;
  chain::AccountRegistry registry;
  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    auto dataset = workload::LoadDatasetCsv(csv);
    if (!dataset.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", csv.c_str(),
                   dataset.status().ToString().c_str());
      return 1;
    }
    ledger = std::move(dataset->ledger);
    registry = std::move(dataset->registry);
    std::printf("loaded %llu transactions / %zu accounts from %s\n",
                static_cast<unsigned long long>(ledger.num_transactions()),
                registry.size(), csv.c_str());
  } else {
    workload::EthereumLikeConfig config;
    config.txs_per_block = 200;
    config.num_blocks =
        static_cast<uint64_t>(flags.GetInt("txs", 200'000)) /
        config.txs_per_block;
    config.num_accounts = static_cast<uint64_t>(
        flags.GetInt("accounts", 32'000));
    config.num_communities = static_cast<uint32_t>(config.num_accounts / 160);
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    workload::EthereumLikeGenerator generator(config);
    ledger = generator.GenerateLedger(config.num_blocks);
    for (size_t a = 0; a < generator.registry().size(); ++a) {
      registry.Intern(
          generator.registry().AddressOf(static_cast<chain::AccountId>(a)));
    }
    std::printf("generated %llu synthetic transactions / %zu accounts\n",
                static_cast<unsigned long long>(ledger.num_transactions()),
                registry.size());
  }

  graph::TransactionGraph graph = graph::BuildTransactionGraph(ledger);
  graph.EnsureNodeCount(registry.size());
  graph.Consolidate();
  alloc::AllocationParams params =
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                             eta);

  std::printf("\n%-16s %8s %10s %12s %10s %10s\n", "method", "gamma",
              "rho/lam", "Lambda/lam", "zeta(avg)", "alloc(s)");

  auto evaluate_and_print = [&](const char* name,
                                const alloc::Allocation& allocation,
                                double seconds) {
    auto report = alloc::EvaluateAllocation(ledger, allocation, params);
    if (!report.ok()) {
      std::fprintf(stderr, "%s evaluation failed: %s\n", name,
                   report.status().ToString().c_str());
      return;
    }
    std::printf("%-16s %8.3f %10.3f %12.2f %10.2f %10.3f\n", name,
                report->cross_shard_ratio,
                report->normalized_workload_stddev,
                report->normalized_throughput, report->avg_latency_blocks,
                seconds);
  };

  {
    Stopwatch watch;
    auto result =
        core::RunGlobalTxAllo(graph, registry.IdsInHashOrder(), params);
    if (!result.ok()) return 1;
    evaluate_and_print("TxAllo", *result, watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    auto allocation = baselines::AllocateByHash(registry, k);
    evaluate_and_print("Random (hash)", allocation, watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    auto result = baselines::metis::PartitionGraph(graph, k);
    if (!result.ok()) return 1;
    evaluate_and_print("METIS-style", *result, watch.ElapsedSeconds());
  }
  {
    Stopwatch watch;
    baselines::ShardScheduler scheduler(k, eta);
    scheduler.ProcessLedger(ledger);
    evaluate_and_print("Shard Scheduler",
                       scheduler.SnapshotAllocation(registry.size()),
                       watch.ElapsedSeconds());
  }
  return 0;
}
