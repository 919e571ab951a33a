#include "txallo/allocator/adapters.h"

#include <algorithm>
#include <utility>

#include "txallo/common/sha256.h"
#include "txallo/core/global.h"

namespace txallo::allocator {

namespace {

// The account domain a one-shot mapping must cover: the widest of the
// context's graph, registry and explicit order.
size_t DomainSize(const AllocationContext& context) {
  size_t n = context.graph != nullptr ? context.graph->num_nodes() : 0;
  if (context.registry != nullptr) n = std::max(n, context.registry->size());
  return n;
}

// The account domain an online mapping covers: every registry-known
// account plus the widest id seen in a transaction.
size_t SeenDomain(const chain::AccountRegistry* registry, size_t seen) {
  return registry != nullptr ? std::max(registry->size(), seen) : seen;
}

size_t KnownAccounts(const chain::AccountRegistry* registry) {
  return registry != nullptr ? registry->size() : 0;
}

// Hash mapping over `domain` accounts: address hash for the first `known`
// ids (registry-known), id hash for the synthetic tail beyond them. Keeps
// registry-known accounts' placement stable as the domain grows — no global
// reshard when one synthetic id appears. A pure function of its arguments:
// the registry only appends, so the first `known` order keys never change.
alloc::Allocation HashOverDomain(const chain::AccountRegistry* registry,
                                 size_t known, size_t domain,
                                 uint32_t num_shards) {
  alloc::Allocation allocation(domain, num_shards);
  for (size_t a = 0; a < domain; ++a) {
    const auto id = static_cast<chain::AccountId>(a);
    const uint64_t key = a < known ? registry->OrderKey(id)
                                   : Sha256::Hash64(static_cast<uint64_t>(a));
    allocation.Assign(id, static_cast<alloc::ShardId>(key % num_shards));
  }
  return allocation;
}

Status RequireGraph(const AllocationContext& context, const char* who) {
  if (context.graph == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   " needs AllocationContext.graph");
  }
  if (!context.graph->consolidated()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": the transaction graph must be "
                                   "consolidated before Allocate()");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// TxAllo (global + hybrid)
// ---------------------------------------------------------------------------

TxAlloAllocator::TxAlloAllocator(std::string name,
                                 const chain::AccountRegistry* registry,
                                 alloc::AllocationParams params,
                                 uint32_t global_every)
    : OnlineAllocator(std::move(name), params),
      controller_(std::make_shared<core::TxAlloController>(registry, params)),
      global_every_(global_every) {}

Result<alloc::Allocation> TxAlloAllocator::Allocate(
    const AllocationContext& context) {
  TXALLO_RETURN_NOT_OK(RequireGraph(context, Name().c_str()));
  const std::vector<graph::NodeId> order = ResolveNodeOrder(context);
  return core::RunGlobalTxAllo(*context.graph, order, context.params);
}

void TxAlloAllocator::ApplyBlock(const chain::Block& block) {
  if (controller_ == nullptr) {
    // A task owns the controller: Commit() replays the block into it.
    pending_blocks_.push_back(block);
    return;
  }
  controller_->ApplyBlock(block);
}

bool TxAlloAllocator::GlobalNow() const {
  return rebalances_ == 1 ||
         (global_every_ > 0 && rebalances_ % global_every_ == 0);
}

std::unique_ptr<RebalanceTask> TxAlloAllocator::BeginRebalance() {
  if (controller_ == nullptr) return nullptr;  // At most one task outstanding.
  if (controller_->transactions_applied() == 0) {
    // Nothing absorbed yet: there is no workload to optimize against, so no
    // step runs and no rebalance is counted.
    return std::make_unique<ClosureRebalanceTask>(
        [mapping = controller_->allocation()]() -> Result<alloc::Allocation> {
          return mapping;
        },
        nullptr);
  }
  ++rebalances_;
  const bool global_now = GlobalNow();
  checkpoint_ = controller_->SaveCheckpoint();
  // The task steps the controller itself — no copy of the graph, mapping or
  // V̂ — and hands it back at Commit().
  std::shared_ptr<core::TxAlloController> stepped = std::move(controller_);
  return std::make_unique<ClosureRebalanceTask>(
      [stepped, global_now]() -> Result<alloc::Allocation> {
        if (global_now) {
          Result<core::GlobalRunInfo> info = stepped->StepGlobal();
          if (!info.ok()) return info.status();
        } else {
          Result<core::AdaptiveRunInfo> info = stepped->StepAdaptive();
          if (!info.ok()) return info.status();
        }
        return stepped->allocation();
      },
      [this, stepped](const Result<alloc::Allocation>& result) -> Status {
        if (!result.ok()) {
          // Failed or abandoned: undo the step (if it ran) and the count.
          stepped->RestoreCheckpoint(std::move(checkpoint_));
          --rebalances_;
        }
        checkpoint_ = {};
        // stepped controller + replayed tail == the state Rebalance()
        // reaches at the BeginRebalance() point with the same blocks
        // arriving afterwards.
        for (const chain::Block& block : std::exchange(pending_blocks_, {})) {
          stepped->ApplyBlock(block);
        }
        controller_ = stepped;
        return result.status();
      });
}

alloc::Allocation TxAlloAllocator::CurrentAllocation() const {
  return controller_ != nullptr ? controller_->allocation()
                                : checkpoint_.allocation;
}

// ---------------------------------------------------------------------------
// Hash routing
// ---------------------------------------------------------------------------

HashStrategy::HashStrategy(std::string name,
                           const chain::AccountRegistry* registry,
                           alloc::AllocationParams params)
    : OnlineAllocator(std::move(name), params), registry_(registry) {}

Result<alloc::Allocation> HashStrategy::Allocate(
    const AllocationContext& context) {
  return HashOverDomain(context.registry, KnownAccounts(context.registry),
                        DomainSize(context), context.params.num_shards);
}

void HashStrategy::ApplyBlock(const chain::Block& block) {
  for (const chain::Transaction& tx : block.transactions()) {
    if (tx.accounts().empty()) continue;
    // accounts() is sorted; the widest id grows the domain.
    num_accounts_seen_ = std::max(
        num_accounts_seen_, static_cast<size_t>(tx.accounts().back()) + 1);
  }
}

bool HashStrategy::LastCovers(size_t domain, size_t known) const {
  return last_ != nullptr && last_domain_ == domain && last_known_ == known;
}

std::unique_ptr<RebalanceTask> HashStrategy::BeginRebalance() {
  const size_t domain = SeenDomain(registry_, num_accounts_seen_);
  const size_t known = KnownAccounts(registry_);
  if (LastCovers(domain, known)) {
    // Same registry, same domain: the mapping cannot have changed.
    return std::make_unique<ClosureRebalanceTask>(
        [mapping = last_]() -> Result<alloc::Allocation> { return *mapping; },
        nullptr);
  }
  // Freeze the domain width and registry size; the recompute runs
  // off-thread against the registry's (append-only) first `known` keys, and
  // Commit() keeps its result for the next rebalance.
  return std::make_unique<ClosureRebalanceTask>(
      [registry = registry_, known, domain,
       k = params_.num_shards]() -> Result<alloc::Allocation> {
        return HashOverDomain(registry, known, domain, k);
      },
      [this, domain, known](const Result<alloc::Allocation>& result) -> Status {
        if (result.ok()) {
          last_ = std::make_shared<const alloc::Allocation>(result.value());
          last_domain_ = domain;
          last_known_ = known;
        }
        return result.status();
      });
}

alloc::Allocation HashStrategy::CurrentAllocation() const {
  const size_t domain = SeenDomain(registry_, num_accounts_seen_);
  const size_t known = KnownAccounts(registry_);
  if (LastCovers(domain, known)) return *last_;
  return HashOverDomain(registry_, known, domain, params_.num_shards);
}

// ---------------------------------------------------------------------------
// METIS
// ---------------------------------------------------------------------------

MetisStrategy::MetisStrategy(std::string name, alloc::AllocationParams params,
                             baselines::metis::PartitionOptions options)
    : OnlineAllocator(std::move(name), params),
      options_(options),
      last_(0, params.num_shards) {}

Result<alloc::Allocation> MetisStrategy::Allocate(
    const AllocationContext& context) {
  TXALLO_RETURN_NOT_OK(RequireGraph(context, Name().c_str()));
  return baselines::metis::PartitionGraph(
      *context.graph, context.params.num_shards, options_);
}

void MetisStrategy::ApplyBlock(const chain::Block& block) {
  builder_.AddBlock(block);
}

std::unique_ptr<RebalanceTask> MetisStrategy::BeginRebalance() {
  // Consolidate on the owner thread (ApplyBlock shares the builder), then
  // double-buffer: the task partitions a frozen copy of the graph while the
  // live one keeps accumulating.
  builder_.Finish();
  if (graph_.num_nodes() == 0) {
    return std::make_unique<ClosureRebalanceTask>(
        [mapping = last_]() -> Result<alloc::Allocation> { return mapping; },
        nullptr);
  }
  // O(delta) snapshot: shares the frozen CSR core, copies only the delta
  // overlay. The task folds the snapshot into a fresh core off-thread
  // (Refreeze) before partitioning; Commit() hands that fold back to the
  // live graph (AdoptCore), so the owner thread never pays the O(E) fold.
  auto snapshot = std::make_shared<graph::TransactionGraph>(graph_);
  const uint64_t fold_generation = graph_.generation();
  return std::make_unique<ClosureRebalanceTask>(
      [snapshot, options = options_,
       k = params_.num_shards]() -> Result<alloc::Allocation> {
        snapshot->Refreeze();
        return baselines::metis::PartitionGraph(*snapshot, k, options);
      },
      [this, snapshot,
       fold_generation](const Result<alloc::Allocation>& result) -> Status {
        // Adopt the off-thread fold even when partitioning failed — it is
        // representation only, and the generation guard rejects stale folds.
        graph_.AdoptCore(snapshot->core(), fold_generation);
        if (!result.ok()) return result.status();
        last_ = *result;
        return Status::OK();
      });
}

alloc::Allocation MetisStrategy::CurrentAllocation() const { return last_; }

// ---------------------------------------------------------------------------
// Louvain communities, packed into k shards
// ---------------------------------------------------------------------------

LouvainStrategy::LouvainStrategy(std::string name,
                                 const chain::AccountRegistry* registry,
                                 alloc::AllocationParams params,
                                 graph::LouvainOptions options)
    : OnlineAllocator(std::move(name), params),
      registry_(registry),
      options_(options),
      last_(0, params.num_shards) {}

Result<alloc::Allocation> LouvainStrategy::Partition(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order, uint32_t num_shards) const {
  const size_t n = graph.num_nodes();
  if (n == 0) return alloc::Allocation(0, num_shards);
  const graph::LouvainResult louvain =
      graph::RunLouvain(graph, node_order, options_);

  // Pack whole communities into shards: heaviest community first into the
  // currently lightest shard (LPT). Keeps communities intact — the point of
  // this baseline — at the price of coarse balance when communities are few.
  std::vector<double> community_weight(louvain.num_communities, 0.0);
  for (size_t v = 0; v < n; ++v) {
    community_weight[louvain.community[v]] +=
        graph.Strength(static_cast<graph::NodeId>(v)) +
        graph.SelfLoop(static_cast<graph::NodeId>(v));
  }
  std::vector<uint32_t> by_weight(louvain.num_communities);
  for (uint32_t c = 0; c < louvain.num_communities; ++c) by_weight[c] = c;
  std::sort(by_weight.begin(), by_weight.end(),
            [&community_weight](uint32_t a, uint32_t b) {
              if (community_weight[a] != community_weight[b]) {
                return community_weight[a] > community_weight[b];
              }
              return a < b;
            });
  std::vector<double> shard_load(num_shards, 0.0);
  std::vector<alloc::ShardId> shard_of_community(louvain.num_communities, 0);
  for (uint32_t c : by_weight) {
    alloc::ShardId best = 0;
    for (alloc::ShardId s = 1; s < num_shards; ++s) {
      if (shard_load[s] < shard_load[best]) best = s;
    }
    shard_of_community[c] = best;
    shard_load[best] += community_weight[c];
  }
  alloc::Allocation allocation(n, num_shards);
  for (size_t v = 0; v < n; ++v) {
    allocation.Assign(static_cast<chain::AccountId>(v),
                      shard_of_community[louvain.community[v]]);
  }
  return allocation;
}

Result<alloc::Allocation> LouvainStrategy::Allocate(
    const AllocationContext& context) {
  TXALLO_RETURN_NOT_OK(RequireGraph(context, Name().c_str()));
  return Partition(*context.graph, ResolveNodeOrder(context),
                   context.params.num_shards);
}

void LouvainStrategy::ApplyBlock(const chain::Block& block) {
  builder_.AddBlock(block);
}

std::unique_ptr<RebalanceTask> LouvainStrategy::BeginRebalance() {
  builder_.Finish();
  AllocationContext context;
  context.graph = &graph_;
  context.registry = registry_;
  // Node order resolves against the live registry on the owner thread; the
  // graph is double-buffered so Partition sees a frozen snapshot. Partition
  // itself only reads the (immutable) options_, so running it off-thread is
  // safe.
  auto order =
      std::make_shared<const std::vector<graph::NodeId>>(
          ResolveNodeOrder(context));
  // O(delta) snapshot + off-thread fold, committed back via AdoptCore —
  // same protocol as MetisStrategy above.
  auto snapshot = std::make_shared<graph::TransactionGraph>(graph_);
  const uint64_t fold_generation = graph_.generation();
  return std::make_unique<ClosureRebalanceTask>(
      [this, snapshot, order]() -> Result<alloc::Allocation> {
        snapshot->Refreeze();
        return Partition(*snapshot, *order, params_.num_shards);
      },
      [this, snapshot,
       fold_generation](const Result<alloc::Allocation>& result) -> Status {
        graph_.AdoptCore(snapshot->core(), fold_generation);
        if (!result.ok()) return result.status();
        last_ = *result;
        return Status::OK();
      });
}

alloc::Allocation LouvainStrategy::CurrentAllocation() const { return last_; }

// ---------------------------------------------------------------------------
// Shard Scheduler
// ---------------------------------------------------------------------------

ShardSchedulerStrategy::ShardSchedulerStrategy(
    std::string name, const chain::AccountRegistry* registry,
    alloc::AllocationParams params, baselines::ShardSchedulerOptions options)
    : OnlineAllocator(std::move(name), params),
      registry_(registry),
      options_(options),
      scheduler_(params.num_shards, params.eta, options) {}

Result<alloc::Allocation> ShardSchedulerStrategy::Allocate(
    const AllocationContext& context) {
  if (context.ledger == nullptr) {
    return Status::InvalidArgument(
        Name() + " needs AllocationContext.ledger (it replays the "
                 "transaction stream)");
  }
  baselines::ShardScheduler scheduler(context.params.num_shards,
                                      context.params.eta, options_);
  scheduler.ProcessLedger(*context.ledger);
  return scheduler.SnapshotAllocation(DomainSize(context));
}

void ShardSchedulerStrategy::ApplyBlock(const chain::Block& block) {
  for (const chain::Transaction& tx : block.transactions()) {
    scheduler_.Process(tx);
    if (!tx.accounts().empty()) {
      num_accounts_seen_ = std::max(
          num_accounts_seen_, static_cast<size_t>(tx.accounts().back()) + 1);
    }
  }
}

std::unique_ptr<RebalanceTask> ShardSchedulerStrategy::BeginRebalance() {
  // The scheduler already maintains the mapping; freeze it by copying the
  // scheduler so the snapshot extraction runs off-thread while the live one
  // keeps streaming transactions.
  auto frozen = std::make_shared<const baselines::ShardScheduler>(scheduler_);
  return std::make_unique<ClosureRebalanceTask>(
      [frozen, domain = SeenDomain(registry_, num_accounts_seen_)]()
          -> Result<alloc::Allocation> {
        return frozen->SnapshotAllocation(domain);
      },
      nullptr);
}

alloc::Allocation ShardSchedulerStrategy::CurrentAllocation() const {
  return scheduler_.SnapshotAllocation(
      SeenDomain(registry_, num_accounts_seen_));
}

// ---------------------------------------------------------------------------
// Broker overlay (decorator)
// ---------------------------------------------------------------------------

BrokerOverlay::BrokerOverlay(std::string name,
                             std::unique_ptr<Allocator> inner,
                             alloc::AllocationParams params,
                             baselines::BrokerOptions options)
    : OnlineAllocator(std::move(name), params),
      inner_(std::move(inner)),
      options_(options) {}

Result<alloc::Allocation> BrokerOverlay::Allocate(
    const AllocationContext& context) {
  Result<alloc::Allocation> result = inner_->Allocate(context);
  if (!result.ok()) return result;
  if (context.graph != nullptr) {
    brokers_ = baselines::SelectBrokersByActivity(*context.graph,
                                                  options_.num_brokers);
  } else {
    brokers_.clear();
  }
  return result;
}

void BrokerOverlay::ApplyBlock(const chain::Block& block) {
  builder_.AddBlock(block);
  if (OnlineAllocator* online = inner_->AsOnline()) {
    online->ApplyBlock(block);
  }
}

std::unique_ptr<RebalanceTask> BrokerOverlay::BeginRebalance() {
  OnlineAllocator* online = inner_->AsOnline();
  if (online == nullptr) return nullptr;
  builder_.Finish();
  // O(delta) snapshot of the overlay's own traffic graph; the task folds it
  // off-thread and the commit adopts the fold (same protocol as Metis).
  auto snapshot = std::make_shared<graph::TransactionGraph>(graph_);
  const uint64_t fold_generation = graph_.generation();
  // Composition: the inner strategy contributes its own frozen task; the
  // overlay adds broker re-selection over its frozen traffic graph.
  std::shared_ptr<RebalanceTask> inner_task = online->BeginRebalance();
  if (inner_task == nullptr) return nullptr;
  auto brokers = std::make_shared<std::vector<chain::AccountId>>();
  return std::make_unique<ClosureRebalanceTask>(
      [snapshot, inner_task, brokers,
       n = options_.num_brokers]() -> Result<alloc::Allocation> {
        snapshot->Refreeze();
        *brokers = baselines::SelectBrokersByActivity(*snapshot, n);
        return inner_task->Run();
      },
      [this, snapshot, fold_generation, inner_task, brokers](
          const Result<alloc::Allocation>& result) -> Status {
        graph_.AdoptCore(snapshot->core(), fold_generation);
        // On failure/abandonment the inner task must NOT commit (its
        // mapping is discarded, not folded in); it releases its own
        // bookkeeping when its last reference dies with these closures.
        if (!result.ok()) return result.status();
        TXALLO_RETURN_NOT_OK(inner_task->Commit());
        brokers_ = std::move(*brokers);
        return Status::OK();
      });
}

alloc::Allocation BrokerOverlay::CurrentAllocation() const {
  if (OnlineAllocator* online = inner_->AsOnline()) {
    return online->CurrentAllocation();
  }
  return alloc::Allocation(0, params_.num_shards);
}

Result<alloc::EvaluationReport> BrokerOverlay::Evaluate(
    const chain::Ledger& ledger, const alloc::Allocation& allocation,
    const alloc::AllocationParams& params) const {
  return baselines::EvaluateWithBrokers(ledger, allocation, params, brokers_,
                                        options_);
}

Result<alloc::EvaluationReport> BrokerOverlay::Evaluate(
    const std::vector<chain::Transaction>& transactions,
    const alloc::Allocation& allocation,
    const alloc::AllocationParams& params) const {
  return baselines::EvaluateWithBrokers(transactions, allocation, params,
                                        brokers_, options_);
}

}  // namespace txallo::allocator
