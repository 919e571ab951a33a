// Quickstart: build a tiny ledger by hand, pick an allocation strategy by
// name from the registry, run it, inspect the mapping and the model
// metrics. Start here.
//
//   ./build/examples/quickstart [--allocator=txallo-global]
//   TXALLO_ALLOCATOR=metis ./build/examples/quickstart
#include <cstdio>

#include "txallo/allocator/registry.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/flags.h"
#include "txallo/graph/builder.h"

int main(int argc, char** argv) {
  using namespace txallo;
  Flags flags = Flags::ParseOrExit(argc, argv, {"allocator"});
  const std::string spec = ResolveAllocatorSpec(flags, "txallo-global");

  // 1. A ledger: two groups of accounts that mostly transact internally
  //    ({alice, bob, carol} and {dave, erin}), plus one bridging payment.
  chain::AccountRegistry registry;
  const chain::AccountId alice = registry.Intern("0xalice");
  const chain::AccountId bob = registry.Intern("0xbob");
  const chain::AccountId carol = registry.Intern("0xcarol");
  const chain::AccountId dave = registry.Intern("0xdave");
  const chain::AccountId erin = registry.Intern("0xerin");

  chain::Ledger ledger;
  std::vector<chain::Transaction> block0 = {
      chain::Transaction::Simple(alice, bob),
      chain::Transaction::Simple(bob, carol),
      chain::Transaction::Simple(carol, alice),
      chain::Transaction::Simple(dave, erin),
      chain::Transaction::Simple(erin, dave),
      chain::Transaction::Simple(alice, dave),  // The one bridge.
  };
  if (!ledger.Append(chain::Block(0, std::move(block0))).ok()) return 1;

  // 2. The transaction graph (Definition 2 of the paper).
  graph::TransactionGraph graph = graph::BuildTransactionGraph(ledger);
  std::printf("transaction graph: %zu accounts, %zu edges, weight %.1f\n",
              graph.num_nodes(), graph.num_edges(), graph.TotalWeight());

  // 3. Pick the strategy by name. Every method — TxAllo, the baselines,
  //    the broker decorator — hangs off the same registry.
  std::printf("allocator: %s (registered:", spec.c_str());
  for (const std::string& name : allocator::RegisteredNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(")\n");
  alloc::AllocationParams params =
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(),
                                             /*num_shards=*/2, /*eta=*/2.0);
  allocator::AllocatorOptions options;
  options.params = params;
  options.registry = &registry;
  auto method = allocator::MakeAllocatorFromSpec(spec, options);
  if (!method.ok()) {
    std::fprintf(stderr, "allocator: %s\n",
                 method.status().ToString().c_str());
    return 1;
  }

  // 4. Allocate into k=2 shards with the paper's experimental setting
  //    (lambda = |T|/k, epsilon = 1e-5 |T|) and eta = 2.
  allocator::AllocationContext context;
  context.graph = &graph;
  context.ledger = &ledger;
  context.registry = &registry;
  context.params = params;
  auto allocation = (*method)->Allocate(context);
  if (!allocation.ok()) {
    std::fprintf(stderr, "allocation failed: %s\n",
                 allocation.status().ToString().c_str());
    return 1;
  }
  for (chain::AccountId a = 0; a < registry.size(); ++a) {
    std::printf("  %-8s -> shard %u\n", registry.AddressOf(a).c_str(),
                allocation->shard_of(a));
  }

  // 5. Evaluate under the strategy's own execution semantics. With the two
  //    groups separated (TxAllo's answer), only the bridge payment is
  //    cross-shard.
  auto report = (*method)->Evaluate(ledger, *allocation, params);
  if (!report.ok()) return 1;
  std::printf("cross-shard ratio : %.0f%% (%llu of 6 transactions)\n",
              100.0 * report->cross_shard_ratio,
              static_cast<unsigned long long>(
                  report->cross_shard_transactions));
  std::printf("throughput        : %.2f of %llu transactions\n",
              report->throughput,
              static_cast<unsigned long long>(report->total_transactions));
  std::printf("avg latency       : %.2f blocks\n",
              report->avg_latency_blocks);
  return 0;
}
