// Adaptive-pipeline scenario: a miner-side allocation daemon. Blocks
// stream in; the chosen online allocator refreshes the mapping every tau1
// blocks. The default strategy is TxAllo's hybrid schedule (A-TxAllo with a
// G-TxAllo refresh every tau2 steps, paper §V-A), but any online method
// from the registry drops in:
//
//   ./build/examples/adaptive_pipeline [--steps=N] [--tau1=B] [--tau2-steps=M]
//   ./build/examples/adaptive_pipeline --allocator=metis
//   TXALLO_ALLOCATOR=shard-scheduler ./build/examples/adaptive_pipeline
#include <cstdio>

#include "txallo/alloc/metrics.h"
#include "txallo/allocator/registry.h"
#include "txallo/common/flags.h"
#include "txallo/common/stopwatch.h"
#include "txallo/sim/reconfig.h"
#include "txallo/workload/ethereum_like.h"

int main(int argc, char** argv) {
  using namespace txallo;
  Flags flags = Flags::ParseOrExit(argc, argv,
      {"allocator", "eta", "k", "seed", "steps", "tau1", "tau2-steps"});
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 12));
  const double eta = flags.GetDouble("eta", 4.0);
  const int steps = static_cast<int>(flags.GetInt("steps", 24));
  const int tau1 = static_cast<int>(flags.GetInt("tau1", 25));  // Blocks.
  const int tau2_steps = static_cast<int>(flags.GetInt("tau2-steps", 8));
  const std::string spec = ResolveAllocatorSpec(
      flags, "txallo-hybrid:global-every=" + std::to_string(tau2_steps));

  workload::EthereumLikeConfig config;
  config.txs_per_block = 120;
  config.num_blocks = static_cast<uint64_t>((steps + 8) * tau1) + 400;
  config.num_accounts = 24'000;
  config.num_communities = 150;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 3));
  workload::EthereumLikeGenerator generator(config);

  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(1, k, eta);
  options.registry = &generator.registry();
  auto made = allocator::MakeAllocatorFromSpec(spec, options);
  if (!made.ok()) {
    std::fprintf(stderr, "allocator: %s\n", made.status().ToString().c_str());
    return 1;
  }
  allocator::OnlineAllocator* daemon = (*made)->AsOnline();
  if (daemon == nullptr) {
    std::fprintf(stderr, "allocator '%s' is one-shot only\n", spec.c_str());
    return 1;
  }

  // Bootstrap: absorb some history and run the first rebalance (for the
  // txallo strategies that is the initial G-TxAllo).
  std::printf("allocator: %s\nbootstrapping: 400 blocks of history + "
              "initial rebalance\n\n",
              spec.c_str());
  for (int b = 0; b < 400; ++b) daemon->ApplyBlock(generator.NextBlock());
  auto bootstrap = daemon->Rebalance();
  if (!bootstrap.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 bootstrap.status().ToString().c_str());
    return 1;
  }

  std::printf("%-5s %10s %12s %12s %10s\n", "step", "secs", "Lambda/lam",
              "gamma(win)", "moved");
  alloc::Allocation previous = std::move(bootstrap.value());
  for (int step = 0; step < steps; ++step) {
    std::vector<chain::Block> window;
    for (int b = 0; b < tau1; ++b) {
      window.push_back(generator.NextBlock());
      daemon->ApplyBlock(window.back());
    }
    Stopwatch watch;
    auto rebalanced = daemon->Rebalance();
    if (!rebalanced.ok()) {
      std::fprintf(stderr, "rebalance failed: %s\n",
                   rebalanced.status().ToString().c_str());
      return 1;
    }
    const double seconds = watch.ElapsedSeconds();

    // Window-level metrics under the fresh mapping.
    std::vector<chain::Transaction> txs;
    for (const chain::Block& blk : window) {
      txs.insert(txs.end(), blk.transactions().begin(),
                 blk.transactions().end());
    }
    alloc::AllocationParams window_params =
        alloc::AllocationParams::ForExperiment(txs.size(), k, eta);
    auto report = (*made)->Evaluate(txs, *rebalanced, window_params);
    if (!report.ok()) return 1;

    // How many accounts had to move (state-migration cost, paper §VII).
    sim::ReconfigStats moved =
        sim::CompareAllocations(previous, *rebalanced);
    previous = std::move(rebalanced.value());

    std::printf("%-5d %9.4fs %12.2f %12.3f %10llu\n", step, seconds,
                report->normalized_throughput, report->cross_shard_ratio,
                static_cast<unsigned long long>(moved.accounts_moved));
  }
  std::printf("\ndone: %d windows of %d blocks under '%s'\n", steps, tau1,
              spec.c_str());
  return 0;
}
