// Adapters wrapping every existing allocation method behind the unified
// Allocator/OnlineAllocator strategy API. Each adapter supports both
// calling conventions:
//
//   * Allocate() is stateless per call — it partitions the context's
//     workload from scratch, so repeated calls are deterministic;
//   * the online path (ApplyBlock/BeginRebalance) streams, which is what
//     lets every method run live on the parallel engine alongside TxAllo.
//
// The graph-partitioning methods share one adapter, GraphStrategy: each is
// a PartitionFn (METIS, Louvain + packing, ContribChain's greedy stream),
// and GraphStrategy accumulates the transaction graph and re-partitions a
// snapshot of it in each RebalanceTask. Adding a graph method is one
// partition function plus a registry entry.
//
// Construct these via allocator/registry.h unless a call site needs one
// concrete strategy (e.g. tests pinning TxAllo's hybrid schedule).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/baselines/broker.h"
#include "txallo/baselines/shard_scheduler.h"
#include "txallo/core/controller.h"
#include "txallo/graph/builder.h"
#include "txallo/graph/louvain.h"

namespace txallo::allocator {

/// TxAllo (paper Algorithms 1 + 2). One class covers both registered
/// strategies: "txallo-global" re-runs G-TxAllo at every Rebalance
/// (global_every = 1, the paper's "Global Method" timeline curve) and
/// "txallo-hybrid" runs A-TxAllo with periodic G-TxAllo refreshes
/// (global_every = n > 1; 0 = adaptive-only after the global bootstrap).
/// The first Rebalance is always global — there is no previous mapping to
/// adapt. Online use requires a registry (deterministic hash node order).
class TxAlloAllocator : public OnlineAllocator {
 public:
  TxAlloAllocator(std::string name, const chain::AccountRegistry* registry,
                  alloc::AllocationParams params, uint32_t global_every);

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

 private:
  // The hybrid schedule's global-vs-adaptive decision for rebalance number
  // `rebalances_` (already incremented).
  bool GlobalNow() const;

  // Null while a RebalanceTask owns (and steps) the controller; a shared_ptr
  // only because the task's closures must be copyable. Meanwhile
  // ApplyBlock() only buffers into pending_blocks_, and checkpoint_ holds
  // what the step may change: CurrentAllocation() reads the pre-step
  // mapping from it, and a failed or abandoned task restores it before the
  // buffered blocks are replayed, so its step is never folded in.
  std::shared_ptr<core::TxAlloController> controller_;
  uint32_t global_every_;
  uint64_t rebalances_ = 0;
  core::TxAlloController::Checkpoint checkpoint_;
  std::vector<chain::Block> pending_blocks_;
};

/// SHA256(address) mod k (Chainspace/Monoxide/OmniLedger/RapidChain,
/// paper §II-C). History-oblivious: online mode only tracks the account
/// domain. With a registry the address hash routes; without one the id
/// hash does.
///
/// The mapping is a pure function of (registry size, domain width, k), so
/// the strategy keeps the one its last committed rebalance produced,
/// together with the registry size and domain width it covers. While
/// neither has grown, BeginRebalance() and CurrentAllocation() return that
/// mapping instead of hashing every account again; after a growth the task
/// recomputes it off-thread and its Commit() replaces the kept one. A task
/// hashes the registry size and domain frozen at BeginRebalance(), so it
/// returns the pre-growth mapping whatever grows before its Run(). The
/// registry must not grow while a Run() is in flight on another thread.
class HashStrategy : public OnlineAllocator {
 public:
  HashStrategy(std::string name, const chain::AccountRegistry* registry,
               alloc::AllocationParams params);

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

 private:
  // Whether last_ was built for exactly this domain and registry size.
  bool LastCovers(size_t domain, size_t known) const;

  const chain::AccountRegistry* registry_;
  size_t num_accounts_seen_ = 0;
  // The last committed rebalance's mapping (immutable: tasks share it) and
  // the domain width and registry size it was hashed over.
  std::shared_ptr<const alloc::Allocation> last_;
  size_t last_domain_ = 0;
  size_t last_known_ = 0;
};

/// A graph method as a pure function of one consolidated transaction
/// graph: (graph, deterministic node order, k) -> mapping over the graph's
/// nodes. It must read nothing but its arguments and the options it was
/// built with, because rebalance tasks call it off-thread.
using PartitionFn = std::function<Result<alloc::Allocation>(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order, uint32_t num_shards)>;

/// The online adapter of every graph-partitioning method (METIS, Louvain,
/// ContribChain; the registry builds each one's PartitionFn). Online mode
/// accumulates its own transaction graph; each rebalance task folds and
/// partitions an O(delta) copy of it off-thread, and its commit hands the
/// fold back to the live graph. Allocate() runs the same function over the
/// context's graph, so the one-shot and online paths cannot diverge. A
/// rebalance before any transaction keeps the empty mapping.
class GraphStrategy : public OnlineAllocator {
 public:
  GraphStrategy(std::string name, const chain::AccountRegistry* registry,
                alloc::AllocationParams params, PartitionFn partition);

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

 private:
  const chain::AccountRegistry* registry_;
  PartitionFn partition_;
  graph::TransactionGraph graph_;
  graph::GraphBuilder builder_{&graph_};
  // The mapping in force (immutable: tasks share it; a commit swaps in the
  // slot its task's Run() filled).
  std::shared_ptr<const alloc::Allocation> last_;
};

/// Pure community detection as a partition function: deterministic Louvain
/// finds communities, then whole communities pack into the k shards
/// greedily-largest-first (LPT bin packing by community weight). The
/// ablation point between METIS (edge cut only) and TxAllo (throughput
/// objective).
Result<alloc::Allocation> PartitionByCommunities(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order, uint32_t num_shards,
    const graph::LouvainOptions& options);

/// Shard Scheduler (Król et al., AFT'21): transaction-level streaming
/// placement and migration. The natural online method — ApplyBlock feeds
/// every transaction through the scheduler; Rebalance snapshots the
/// mapping it already maintains.
class ShardSchedulerStrategy : public OnlineAllocator {
 public:
  ShardSchedulerStrategy(std::string name,
                         const chain::AccountRegistry* registry,
                         alloc::AllocationParams params,
                         baselines::ShardSchedulerOptions options);

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

 private:
  const chain::AccountRegistry* registry_;
  baselines::ShardSchedulerOptions options_;
  baselines::ShardScheduler scheduler_;
  size_t num_accounts_seen_ = 0;
};

/// BrokerChain-style decorator (Huang et al., INFOCOM'22): composes over
/// ANY inner allocator. The mapping is the inner strategy's; what changes
/// is the execution semantics — Evaluate() prices cross-shard transactions
/// through replicated broker accounts (EvaluateWithBrokers). Brokers are
/// re-selected from the observed traffic at every Allocate/Rebalance.
/// Online-capable iff the inner strategy is.
class BrokerOverlay : public OnlineAllocator {
 public:
  BrokerOverlay(std::string name, std::unique_ptr<Allocator> inner,
                alloc::AllocationParams params,
                baselines::BrokerOptions options);

  OnlineAllocator* AsOnline() override {
    return inner_->AsOnline() != nullptr ? this : nullptr;
  }

  Result<alloc::Allocation> Allocate(const AllocationContext& context) override;
  void ApplyBlock(const chain::Block& block) override;
  std::unique_ptr<RebalanceTask> BeginRebalance() override;
  alloc::Allocation CurrentAllocation() const override;

  Result<alloc::EvaluationReport> Evaluate(
      const chain::Ledger& ledger, const alloc::Allocation& allocation,
      const alloc::AllocationParams& params) const override;
  Result<alloc::EvaluationReport> Evaluate(
      const std::vector<chain::Transaction>& transactions,
      const alloc::Allocation& allocation,
      const alloc::AllocationParams& params) const override;

  const Allocator& inner() const { return *inner_; }
  const std::vector<chain::AccountId>& brokers() const { return brokers_; }

 private:
  std::unique_ptr<Allocator> inner_;
  baselines::BrokerOptions options_;
  // Traffic the overlay has observed, for broker selection in online mode.
  graph::TransactionGraph graph_;
  graph::GraphBuilder builder_{&graph_};
  std::vector<chain::AccountId> brokers_;
};

}  // namespace txallo::allocator
