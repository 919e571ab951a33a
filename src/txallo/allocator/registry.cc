#include "txallo/allocator/registry.h"

#include <utility>
#include <vector>

#include "txallo/allocator/adapters.h"
#include "txallo/allocator/contrib.h"
#include "txallo/baselines/metis/partitioner.h"
#include "txallo/common/spec.h"

namespace txallo::allocator {

namespace {

using common::kAnyValue;
using common::kAtLeastOne;
using common::kNonNegative;
using common::kPositive;
using common::OptionDoc;
using common::OptionReader;

Status RequireRegistry(const std::string& name,
                       const AllocatorOptions& options) {
  if (options.registry == nullptr) {
    return Status::InvalidArgument(
        "allocator '" + name +
        "' requires AllocatorOptions.registry (deterministic account-hash "
        "node order)");
  }
  return Status::OK();
}

// `read` reads options.extra against the entry's declarations.
using Factory = Result<std::unique_ptr<Allocator>> (*)(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader& read);

Result<std::unique_ptr<Allocator>> MakeTxAlloGlobal(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader&) {
  TXALLO_RETURN_NOT_OK(RequireRegistry(name, options));
  return std::unique_ptr<Allocator>(new TxAlloAllocator(
      name, options.registry, options.params, /*global_every=*/1));
}

Result<std::unique_ptr<Allocator>> MakeTxAlloHybrid(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader& read) {
  TXALLO_RETURN_NOT_OK(RequireRegistry(name, options));
  uint32_t global_every = 0;  // Adaptive-only after the global bootstrap.
  TXALLO_RETURN_NOT_OK(read.Read("global-every", &global_every));
  return std::unique_ptr<Allocator>(new TxAlloAllocator(
      name, options.registry, options.params, global_every));
}

Result<std::unique_ptr<Allocator>> MakeHash(const std::string& name,
                                            const AllocatorOptions& options,
                                            const OptionReader&) {
  return std::unique_ptr<Allocator>(
      new HashStrategy(name, options.registry, options.params));
}

Result<std::unique_ptr<Allocator>> MakeMetis(const std::string& name,
                                             const AllocatorOptions& options,
                                             const OptionReader& read) {
  baselines::metis::PartitionOptions metis_options;
  TXALLO_RETURN_NOT_OK(read.Read("imbalance", &metis_options.imbalance));
  // METIS ignores the node order.
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [metis_options](const graph::TransactionGraph& graph,
                      const std::vector<graph::NodeId>&, uint32_t k) {
        return baselines::metis::PartitionGraph(graph, k, metis_options);
      }));
}

Result<std::unique_ptr<Allocator>> MakeLouvain(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader& read) {
  graph::LouvainOptions louvain_options;
  TXALLO_RETURN_NOT_OK(read.Read("resolution", &louvain_options.resolution));
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [louvain_options](const graph::TransactionGraph& graph,
                        const std::vector<graph::NodeId>& order, uint32_t k) {
        return PartitionByCommunities(graph, order, k, louvain_options);
      }));
}

Result<std::unique_ptr<Allocator>> MakeShardScheduler(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader& read) {
  baselines::ShardSchedulerOptions scheduler_options;
  TXALLO_RETURN_NOT_OK(
      read.Read("buffer-ratio", &scheduler_options.buffer_ratio));
  TXALLO_RETURN_NOT_OK(
      read.Read("migration-benefit", &scheduler_options.migration_benefit));
  return std::unique_ptr<Allocator>(new ShardSchedulerStrategy(
      name, options.registry, options.params, scheduler_options));
}

Result<std::unique_ptr<Allocator>> MakeContrib(
    const std::string& name, const AllocatorOptions& options,
    const OptionReader& read) {
  ContribOptions contrib_options;
  TXALLO_RETURN_NOT_OK(read.Read("imbalance", &contrib_options.imbalance));
  TXALLO_RETURN_NOT_OK(
      read.Read("stress-weight", &contrib_options.stress_weight));
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [contrib_options](const graph::TransactionGraph& graph,
                        const std::vector<graph::NodeId>& order, uint32_t k) {
        return PartitionByContribution(graph, order, k, contrib_options);
      }));
}

Result<std::unique_ptr<Allocator>> MakeBroker(const std::string& name,
                                              const AllocatorOptions& options,
                                              const OptionReader& read) {
  baselines::BrokerOptions broker_options;
  TXALLO_RETURN_NOT_OK(read.Read("brokers", &broker_options.num_brokers));
  TXALLO_RETURN_NOT_OK(
      read.Read("cross-cost", &broker_options.broker_cross_cost));
  // BrokerChain's backbone allocator is METIS; that is the default inner.
  std::string inner_name = "metis";
  TXALLO_RETURN_NOT_OK(read.Read("inner", &inner_name));
  if (inner_name == name) {
    return Status::InvalidArgument(
        "allocator 'broker' cannot wrap itself (inner=" + inner_name + ")");
  }
  AllocatorOptions inner_options = options;
  inner_options.extra.clear();  // Broker keys must not leak into the inner.
  Result<std::unique_ptr<Allocator>> inner =
      MakeAllocator(inner_name, inner_options);
  if (!inner.ok()) {
    return Status::InvalidArgument("allocator 'broker': inner allocator "
                                   "failed: " +
                                   inner.status().ToString());
  }
  return std::unique_ptr<Allocator>(
      new BrokerOverlay(name, std::move(inner.value()), options.params,
                        broker_options));
}

constexpr OptionDoc kBrokerOptions[] = {
    {"inner", "string", "metis",
     {"any registered name except broker"},
     "backbone allocator whose mapping the overlay publishes"},
    {"brokers", "uint", "16", kNonNegative,
     "how many of the most active accounts become brokers"},
    {"cross-cost", "double", "1.2", kNonNegative,
     "per-shard workload of one brokered cross-shard sub-transaction"},
};
constexpr OptionDoc kContribOptions[] = {
    {"imbalance", "double", "1.1", kAtLeastOne,
     "per-shard contribution capacity slack (capacity = imbalance*total/k)"},
    {"stress-weight", "double", "1.0", kNonNegative,
     "overload penalty weight once a shard exceeds its capacity"},
};
constexpr OptionDoc kLouvainOptions[] = {
    {"resolution", "double", "1.0", kPositive,
     "modularity resolution (1.0 = classic modularity)"},
};
constexpr OptionDoc kMetisOptions[] = {
    {"imbalance", "double", "1.03", kAtLeastOne,
     "vertex-weight balance tolerance (1.03 = METIS default)"},
};
constexpr OptionDoc kShardSchedulerOptions[] = {
    {"buffer-ratio", "double", "1.0", kAnyValue,
     "shards accept placements while load <= ratio * average"},
    {"migration-benefit", "double", "1.5", kAnyValue,
     "minimum interaction-weight gain factor before an account migrates"},
};
constexpr OptionDoc kTxAlloHybridOptions[] = {
    {"global-every", "uint", "0", kNonNegative,
     "G-TxAllo every N rebalances (0 = adaptive-only after the global "
     "bootstrap)"},
};

// Sorted by name (RegisteredNames() relies on it).
constexpr common::SpecEntry<Factory> kEntries[] = {
    {"broker",
     "BrokerChain-style overlay over any inner allocator (inner=NAME, "
     "brokers=N, cross-cost=C): replicated broker accounts absorb "
     "cross-shard traffic at evaluation time",
     MakeBroker, kBrokerOptions},
    {"contrib",
     "ContribChain-style contribution/stress-weighted greedy placement: "
     "high-contribution accounts anchor shards, stress discounts overloaded "
     "ones (imbalance=F, stress-weight=W)",
     MakeContrib, kContribOptions},
    {"hash",
     "SHA256(address) mod k — the history-oblivious scheme of "
     "Chainspace/Monoxide/OmniLedger/RapidChain",
     MakeHash},
    {"louvain",
     "deterministic Louvain communities packed whole into k shards "
     "(resolution=R)",
     MakeLouvain, kLouvainOptions},
    {"metis",
     "from-scratch METIS-style multilevel k-way partitioner "
     "(imbalance=F >= 1.0)",
     MakeMetis, kMetisOptions},
    {"shard-scheduler",
     "Shard Scheduler (AFT'21): per-transaction streaming placement and "
     "migration (buffer-ratio=R, migration-benefit=B)",
     MakeShardScheduler, kShardSchedulerOptions},
    {"txallo-global",
     "G-TxAllo (Algorithm 1) on the full graph; online Rebalance re-runs "
     "it from scratch (the paper's Global Method)",
     MakeTxAlloGlobal},
    {"txallo-hybrid",
     "TxAllo hybrid schedule (§V-A): A-TxAllo per Rebalance with periodic "
     "G-TxAllo refreshes (global-every=N, 0 = adaptive after bootstrap)",
     MakeTxAlloHybrid, kTxAlloHybridOptions},
};

}  // namespace

std::vector<std::string> RegisteredNames() {
  return common::EntryNames(DescribeAllocators());
}

std::vector<common::EntryDoc> DescribeAllocators() {
  return common::DescribeEntries(kEntries);
}

std::string AllocatorUsageText() {
  return common::UsageText(
      "Allocator", "", DescribeAllocators(), "(no options)",
      "--allocator=txallo-hybrid:global-every=4\n"
      "          --allocator=\"broker:inner=contrib,brokers=8\"\n");
}

Result<std::unique_ptr<Allocator>> MakeAllocator(
    const std::string& name, const AllocatorOptions& options) {
  Result<size_t> index =
      common::FindEntry("allocator", DescribeAllocators(), name);
  if (!index.ok()) return index.status();
  const common::SpecEntry<Factory>& entry = kEntries[*index];
  const OptionReader read(options.extra, entry.options);
  TXALLO_RETURN_NOT_OK(read.ExpectOnly("allocator", name));
  return entry.factory(name, options, read);
}

Result<std::unique_ptr<Allocator>> MakeAllocatorFromSpec(
    const std::string& spec, AllocatorOptions options) {
  Result<common::ParsedSpec> parsed = common::ParseSpec(spec);
  if (!parsed.ok()) return parsed.status();
  for (auto& [key, value] : parsed->options) {
    options.extra[key] = value;
  }
  return MakeAllocator(parsed->name, options);
}

}  // namespace txallo::allocator
