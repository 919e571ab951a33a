#include "txallo/allocator/registry.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "txallo/allocator/adapters.h"
#include "txallo/allocator/contrib.h"
#include "txallo/baselines/metis/partitioner.h"
#include "txallo/common/spec.h"

namespace txallo::allocator {

namespace {

using common::ExpectOnly;
using common::OptionMap;
using common::ReadDouble;
using common::ReadUint32;

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

using Factory = Result<std::unique_ptr<Allocator>> (*)(
    const std::string&, const AllocatorOptions&);

Result<std::unique_ptr<Allocator>> MakeTxAlloGlobal(
    const std::string& name, const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly("allocator", name, options.extra, {}));
  TXALLO_RETURN_NOT_OK(RequireRegistry(name, options));
  return std::unique_ptr<Allocator>(new TxAlloAllocator(
      name, options.registry, options.params, /*global_every=*/1));
}

Result<std::unique_ptr<Allocator>> MakeTxAlloHybrid(
    const std::string& name, const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly("allocator", name, options.extra, {"global-every"}));
  TXALLO_RETURN_NOT_OK(RequireRegistry(name, options));
  uint32_t global_every = 0;  // Adaptive-only after the global bootstrap.
  TXALLO_RETURN_NOT_OK(ReadUint32(options.extra, "global-every",
                                  &global_every));
  return std::unique_ptr<Allocator>(new TxAlloAllocator(
      name, options.registry, options.params, global_every));
}

Result<std::unique_ptr<Allocator>> MakeHash(const std::string& name,
                                            const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly("allocator", name, options.extra, {}));
  return std::unique_ptr<Allocator>(
      new HashStrategy(name, options.registry, options.params));
}

Result<std::unique_ptr<Allocator>> MakeMetis(const std::string& name,
                                             const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly("allocator", name, options.extra, {"imbalance"}));
  baselines::metis::PartitionOptions metis_options;
  TXALLO_RETURN_NOT_OK(
      ReadDouble(options.extra, "imbalance", &metis_options.imbalance));
  if (metis_options.imbalance < 1.0) {
    return Status::InvalidArgument(
        "option 'imbalance' must be >= 1.0 for allocator '" + name + "'");
  }
  // METIS ignores the node order.
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [metis_options](const graph::TransactionGraph& graph,
                      const std::vector<graph::NodeId>&, uint32_t k) {
        return baselines::metis::PartitionGraph(graph, k, metis_options);
      }));
}

Result<std::unique_ptr<Allocator>> MakeLouvain(
    const std::string& name, const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(
      ExpectOnly("allocator", name, options.extra, {"resolution"}));
  graph::LouvainOptions louvain_options;
  TXALLO_RETURN_NOT_OK(
      ReadDouble(options.extra, "resolution", &louvain_options.resolution));
  if (louvain_options.resolution <= 0.0) {
    return Status::InvalidArgument(
        "option 'resolution' must be > 0 for allocator '" + name + "'");
  }
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [louvain_options](const graph::TransactionGraph& graph,
                        const std::vector<graph::NodeId>& order, uint32_t k) {
        return PartitionByCommunities(graph, order, k, louvain_options);
      }));
}

Result<std::unique_ptr<Allocator>> MakeShardScheduler(
    const std::string& name, const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly("allocator", name, options.extra,
                                  {"buffer-ratio", "migration-benefit"}));
  baselines::ShardSchedulerOptions scheduler_options;
  TXALLO_RETURN_NOT_OK(ReadDouble(options.extra, "buffer-ratio",
                                  &scheduler_options.buffer_ratio));
  TXALLO_RETURN_NOT_OK(ReadDouble(options.extra, "migration-benefit",
                                  &scheduler_options.migration_benefit));
  return std::unique_ptr<Allocator>(new ShardSchedulerStrategy(
      name, options.registry, options.params, scheduler_options));
}

Result<std::unique_ptr<Allocator>> MakeBroker(const std::string& name,
                                              const AllocatorOptions& options);

Result<std::unique_ptr<Allocator>> MakeContrib(
    const std::string& name, const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly("allocator", name, options.extra,
                                  {"imbalance", "stress-weight"}));
  ContribOptions contrib_options;
  TXALLO_RETURN_NOT_OK(
      ReadDouble(options.extra, "imbalance", &contrib_options.imbalance));
  TXALLO_RETURN_NOT_OK(ReadDouble(options.extra, "stress-weight",
                                  &contrib_options.stress_weight));
  if (contrib_options.imbalance < 1.0) {
    return Status::InvalidArgument(
        "option 'imbalance' must be >= 1.0 for allocator '" + name + "'");
  }
  if (contrib_options.stress_weight < 0.0) {
    return Status::InvalidArgument(
        "option 'stress-weight' must be >= 0 for allocator '" + name + "'");
  }
  return std::unique_ptr<Allocator>(new GraphStrategy(
      name, options.registry, options.params,
      [contrib_options](const graph::TransactionGraph& graph,
                        const std::vector<graph::NodeId>& order, uint32_t k) {
        return PartitionByContribution(graph, order, k, contrib_options);
      }));
}

// Per-option self-description literal; kEntries points at static arrays of
// these, and DescribeAllocators()/AllocatorUsageText() render them.
struct OptionDocLit {
  const char* key;
  const char* type;
  const char* default_value;
  const char* range;
  const char* help;
};

constexpr OptionDocLit kBrokerOptionDocs[] = {
    {"inner", "string", "metis", "any registered name except broker",
     "backbone allocator whose mapping the overlay publishes"},
    {"brokers", "uint", "16", ">= 0",
     "how many of the most active accounts become brokers"},
    {"cross-cost", "double", "1.2", ">= 0",
     "per-shard workload of one brokered cross-shard sub-transaction"},
};
constexpr OptionDocLit kContribOptionDocs[] = {
    {"imbalance", "double", "1.1", ">= 1.0",
     "per-shard contribution capacity slack (capacity = imbalance*total/k)"},
    {"stress-weight", "double", "1.0", ">= 0",
     "overload penalty weight once a shard exceeds its capacity"},
};
constexpr OptionDocLit kLouvainOptionDocs[] = {
    {"resolution", "double", "1.0", "> 0",
     "modularity resolution (1.0 = classic modularity)"},
};
constexpr OptionDocLit kMetisOptionDocs[] = {
    {"imbalance", "double", "1.03", ">= 1.0",
     "vertex-weight balance tolerance (1.03 = METIS default)"},
};
constexpr OptionDocLit kShardSchedulerOptionDocs[] = {
    {"buffer-ratio", "double", "1.0", "any",
     "shards accept placements while load <= ratio * average"},
    {"migration-benefit", "double", "1.5", "any",
     "minimum interaction-weight gain factor before an account migrates"},
};
constexpr OptionDocLit kTxAlloHybridOptionDocs[] = {
    {"global-every", "uint", "0", ">= 0",
     "G-TxAllo every N rebalances (0 = adaptive-only after the global "
     "bootstrap)"},
};

struct Entry {
  const char* name;
  const char* summary;
  Factory factory;
  const OptionDocLit* options = nullptr;
  size_t num_options = 0;
};

// Sorted by name (RegisteredNames() relies on it).
constexpr Entry kEntries[] = {
    {"broker",
     "BrokerChain-style overlay over any inner allocator (inner=NAME, "
     "brokers=N, cross-cost=C): replicated broker accounts absorb "
     "cross-shard traffic at evaluation time",
     MakeBroker, kBrokerOptionDocs, std::size(kBrokerOptionDocs)},
    {"contrib",
     "ContribChain-style contribution/stress-weighted greedy placement: "
     "high-contribution accounts anchor shards, stress discounts overloaded "
     "ones (imbalance=F, stress-weight=W)",
     MakeContrib, kContribOptionDocs, std::size(kContribOptionDocs)},
    {"hash",
     "SHA256(address) mod k — the history-oblivious scheme of "
     "Chainspace/Monoxide/OmniLedger/RapidChain",
     MakeHash},
    {"louvain",
     "deterministic Louvain communities packed whole into k shards "
     "(resolution=R)",
     MakeLouvain, kLouvainOptionDocs, std::size(kLouvainOptionDocs)},
    {"metis",
     "from-scratch METIS-style multilevel k-way partitioner "
     "(imbalance=F >= 1.0)",
     MakeMetis, kMetisOptionDocs, std::size(kMetisOptionDocs)},
    {"shard-scheduler",
     "Shard Scheduler (AFT'21): per-transaction streaming placement and "
     "migration (buffer-ratio=R, migration-benefit=B)",
     MakeShardScheduler, kShardSchedulerOptionDocs,
     std::size(kShardSchedulerOptionDocs)},
    {"txallo-global",
     "G-TxAllo (Algorithm 1) on the full graph; online Rebalance re-runs "
     "it from scratch (the paper's Global Method)",
     MakeTxAlloGlobal},
    {"txallo-hybrid",
     "TxAllo hybrid schedule (§V-A): A-TxAllo per Rebalance with periodic "
     "G-TxAllo refreshes (global-every=N, 0 = adaptive after bootstrap)",
     MakeTxAlloHybrid, kTxAlloHybridOptionDocs,
     std::size(kTxAlloHybridOptionDocs)},
};

Result<std::unique_ptr<Allocator>> MakeBroker(const std::string& name,
                                              const AllocatorOptions& options) {
  TXALLO_RETURN_NOT_OK(ExpectOnly("allocator", name, options.extra,
                                  {"inner", "brokers", "cross-cost"}));
  baselines::BrokerOptions broker_options;
  TXALLO_RETURN_NOT_OK(
      ReadUint32(options.extra, "brokers", &broker_options.num_brokers));
  TXALLO_RETURN_NOT_OK(ReadDouble(options.extra, "cross-cost",
                                  &broker_options.broker_cross_cost));
  // BrokerChain's backbone allocator is METIS; that is the default inner.
  std::string inner_name = "metis";
  if (auto it = options.extra.find("inner"); it != options.extra.end()) {
    inner_name = it->second;
  }
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

}  // namespace

Result<OptionMap> ParseOptionList(const std::string& spec) {
  return common::ParseOptionList(spec);
}

Result<AllocatorSpec> ParseAllocatorSpec(const std::string& spec) {
  Result<common::ParsedSpec> parsed = common::ParseSpec(spec);
  if (!parsed.ok()) {
    // Keep the historical error wording for the empty-name case; option
    // grammar errors pass through unchanged.
    if (spec.empty() || spec[0] == ':') {
      return Status::InvalidArgument("empty allocator name in spec '" + spec +
                                     "'");
    }
    return parsed.status();
  }
  return AllocatorSpec{std::move(parsed->name), std::move(parsed->options)};
}

std::vector<std::string> RegisteredNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kEntries));
  for (const Entry& entry : kEntries) names.emplace_back(entry.name);
  return names;
}

std::string DescribeAllocator(const std::string& name) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) return entry.summary;
  }
  return "";
}

std::vector<AllocatorDoc> DescribeAllocators() {
  std::vector<AllocatorDoc> docs;
  docs.reserve(std::size(kEntries));
  for (const Entry& entry : kEntries) {
    AllocatorDoc doc;
    doc.name = entry.name;
    doc.summary = entry.summary;
    doc.options.reserve(entry.num_options);
    for (size_t i = 0; i < entry.num_options; ++i) {
      const OptionDocLit& option = entry.options[i];
      doc.options.push_back(AllocatorOptionDoc{option.key, option.type,
                                               option.default_value,
                                               option.range, option.help});
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::string AllocatorUsageText() {
  std::string out =
      "Allocator specs: NAME or NAME:key=value[,key=value...]\n\n";
  for (const AllocatorDoc& doc : DescribeAllocators()) {
    out += doc.name + "\n    " + doc.summary + "\n";
    if (doc.options.empty()) {
      out += "    (no options)\n";
    }
    for (const AllocatorOptionDoc& option : doc.options) {
      out += "    " + option.key + "=<" + option.type + ">  default " +
             option.default_value + ", " + option.range + " — " +
             option.help + "\n";
    }
  }
  out +=
      "\nExamples: --allocator=txallo-hybrid:global-every=4\n"
      "          --allocator=\"broker:inner=contrib,brokers=8\"\n";
  return out;
}

Result<std::unique_ptr<Allocator>> MakeAllocator(
    const std::string& name, const AllocatorOptions& options) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) return entry.factory(name, options);
  }
  std::string known;
  for (const Entry& entry : kEntries) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  return Status::NotFound("no allocator registered under '" + name +
                          "' (registered: " + known + ")");
}

Result<std::unique_ptr<Allocator>> MakeAllocatorFromSpec(
    const std::string& spec, AllocatorOptions options) {
  Result<AllocatorSpec> parsed = ParseAllocatorSpec(spec);
  if (!parsed.ok()) return parsed.status();
  for (auto& [key, value] : parsed->options) {
    options.extra[key] = value;
  }
  return MakeAllocator(parsed->name, options);
}

}  // namespace txallo::allocator
