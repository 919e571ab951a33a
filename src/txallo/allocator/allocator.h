// The unified allocation-strategy API (paper §VI's method matrix as code).
//
// Every allocation method — TxAllo itself, the §II-C baselines, and any
// future ContribChain/Mosaic-style plugin — sits behind one polymorphic
// interface with two calling conventions:
//
//   * one-shot: Allocate(AllocationContext) partitions a historical
//     workload once (what the figure sweeps evaluate);
//   * online: an OnlineAllocator additionally absorbs committed blocks
//     (ApplyBlock) and refreshes the mapping at epoch boundaries — the
//     shape engine::RunReallocatedStream drives.
//
// An online strategy implements its refresh exactly once, as
// BeginRebalance(): a RebalanceTask that freezes the absorbed state, runs
// on any thread, and commits back on the owner thread. Rebalance() is not
// a second implementation but the synchronous use of that one task
// (BeginRebalance() → Run() → Commit() in place), so the background
// pipeline and the driver schedules cannot compute different mappings.
//
// Instances come from the string-keyed factory in allocator/registry.h
// (MakeAllocator("txallo-hybrid", options)), so benches, examples and the
// engine pick strategies by name (--allocator=...) instead of compiling
// against each method's bespoke entry point.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/chain/account.h"
#include "txallo/chain/block.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/graph/graph.h"

namespace txallo::allocator {

/// Everything a one-shot strategy may consume. Graph-based methods (TxAllo,
/// METIS, Louvain) read `graph`; transaction-level methods (Shard
/// Scheduler) replay `ledger`; hash routing only needs the account domain.
/// A strategy fails with InvalidArgument when a field it requires is null.
struct AllocationContext {
  /// Consolidated transaction graph (paper Definition 2).
  const graph::TransactionGraph* graph = nullptr;
  /// The raw transaction history, for strategies that replay it.
  const chain::Ledger* ledger = nullptr;
  /// Account metadata: address hashes for deterministic ordering and
  /// hash-based routing. Optional — id order / id hashing are the fallback.
  const chain::AccountRegistry* registry = nullptr;
  /// Explicit deterministic node iteration order (a permutation of
  /// [0, graph->num_nodes())). Defaults to the registry's hash order, then
  /// to id order.
  const std::vector<graph::NodeId>* node_order = nullptr;
  /// θ: shard count k, η, capacity λ, convergence ε.
  alloc::AllocationParams params;
};

class OnlineAllocator;

/// Abstract allocation strategy. Implementations must be deterministic for
/// a given context (paper §V-B: all miners recompute the same mapping), so
/// calling Allocate twice with the same inputs yields the same mapping.
class Allocator {
 public:
  explicit Allocator(std::string name) : name_(std::move(name)) {}
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// The registry key this instance was created under ("metis",
  /// "txallo-hybrid", ...).
  const std::string& Name() const { return name_; }

  /// One-shot partitioning of the context's workload into
  /// context.params.num_shards shards. The returned mapping covers the
  /// full account domain (Allocation::Validate() passes).
  virtual Result<alloc::Allocation> Allocate(
      const AllocationContext& context) = 0;

  /// Online view of this strategy, or nullptr for one-shot-only methods.
  virtual OnlineAllocator* AsOnline() { return nullptr; }

  /// Evaluates `allocation` over a transaction set under this strategy's
  /// execution semantics. The default is the plain §III-B model; overlays
  /// (brokers) override it — their runtime behavior, not their mapping, is
  /// what differs.
  virtual Result<alloc::EvaluationReport> Evaluate(
      const chain::Ledger& ledger, const alloc::Allocation& allocation,
      const alloc::AllocationParams& params) const;
  virtual Result<alloc::EvaluationReport> Evaluate(
      const std::vector<chain::Transaction>& transactions,
      const alloc::Allocation& allocation,
      const alloc::AllocationParams& params) const;

 private:
  std::string name_;
};

/// One rebalance of an OnlineAllocator, detached from its parent so the
/// expensive part can run on a background thread while the parent keeps
/// absorbing blocks. This is the only rebalance a strategy implements;
/// OnlineAllocator::Rebalance() runs the same three steps in place.
/// Lifecycle (enforced by the engine pipeline and the conformance suite):
///
///   1. `BeginRebalance()` on the thread that owns the allocator freezes
///      everything absorbed so far into the task (graph snapshots, frozen
///      domain sizes, or the whole TxAllo controller, moved in).
///   2. `Run()` — once, on any thread — computes the refreshed mapping from
///      the frozen state only. It is safe to call `ApplyBlock()` on the
///      parent concurrently; blocks applied after BeginRebalance() are not
///      seen by this task (they roll into the next rebalance).
///   3. `Commit()` — once, back on the owning thread, after Run() returned —
///      folds the result into the parent, so `CurrentAllocation()` and the
///      next rebalance continue exactly as if Rebalance() had run at the
///      BeginRebalance() point and the later blocks arrived afterwards.
///
/// At most one task may be outstanding per allocator, and the parent must
/// outlive the task. Destroying a task without Commit() *abandons* it: the
/// parent's outstanding-task bookkeeping is released and the mapping is
/// discarded (never folded in). Abandonment runs on the destroying thread,
/// which must be the owning thread — the engine's BackgroundAllocator
/// guarantees this by joining its worker before dropping an uncollected
/// task.
class RebalanceTask {
 public:
  virtual ~RebalanceTask() = default;

  RebalanceTask(const RebalanceTask&) = delete;
  RebalanceTask& operator=(const RebalanceTask&) = delete;

  /// Computes the refreshed mapping from the frozen snapshot. Called once;
  /// any thread.
  virtual Result<alloc::Allocation> Run() = 0;

  /// Folds the completed computation back into the parent allocator. Called
  /// once, after Run(), on the thread that owns the parent. Must be called
  /// even when Run() failed (it clears the parent's outstanding-task
  /// bookkeeping); it returns Run()'s error in that case.
  virtual Status Commit() = 0;

 protected:
  RebalanceTask() = default;
};

/// The common RebalanceTask shape: a pure `run` closure over state captured
/// at BeginRebalance() time, and an optional owner-thread `commit` closure
/// receiving Run()'s status (also on failure, for bookkeeping cleanup).
/// The task keeps no mapping: Run() hands the closure's result out by move.
/// A strategy that keeps the mapping it publishes shares it with its
/// `run` closure (a shared slot the commit then adopts) instead of copying
/// it back out of the task.
class ClosureRebalanceTask : public RebalanceTask {
 public:
  using RunFn = std::function<Result<alloc::Allocation>()>;
  using CommitFn = std::function<Status(const Status&)>;

  ClosureRebalanceTask(RunFn run, CommitFn commit)
      : run_(std::move(run)), commit_(std::move(commit)) {}

  /// Abandonment: a task destroyed before Commit() still runs the commit
  /// closure, but with an error status — parents release their
  /// outstanding-task bookkeeping (TxAllo restores its pre-step checkpoint
  /// and takes its controller back, etc.) without ever folding the
  /// abandoned mapping in.
  ~ClosureRebalanceTask() override {
    if (committed_ || !commit_) return;
    (void)commit_(Status::FailedPrecondition(
        "rebalance task abandoned before Commit()"));
  }

  Result<alloc::Allocation> Run() override {
    Result<alloc::Allocation> result = run_();
    status_ = result.status();
    ran_ = true;
    return result;
  }

  Status Commit() override {
    if (!ran_) {
      return Status::FailedPrecondition(
          "RebalanceTask::Commit() before Run()");
    }
    committed_ = true;
    if (commit_) return commit_(status_);
    return status_;
  }

 private:
  RunFn run_;
  CommitFn commit_;
  bool ran_ = false;
  bool committed_ = false;
  Status status_;
};

/// A strategy that can run live: absorb committed blocks as they arrive and
/// refresh the full mapping at epoch boundaries. This is the interface
/// engine::RunReallocatedStream drives, so every online method — not just
/// TxAllo's hybrid controller — can reallocate a running engine.
class OnlineAllocator : public Allocator {
 public:
  OnlineAllocator(std::string name, alloc::AllocationParams params)
      : Allocator(std::move(name)), params_(params) {}

  OnlineAllocator* AsOnline() override { return this; }

  /// Absorbs one committed block into the strategy's internal state.
  virtual void ApplyBlock(const chain::Block& block) = 0;

  /// Freezes the absorbed state into a task whose Run() may execute on
  /// another thread while this allocator keeps accumulating blocks (see
  /// RebalanceTask for the full contract). The one rebalance a strategy
  /// implements. Returns nullptr while a previous task is still
  /// outstanding (not yet committed or abandoned).
  virtual std::unique_ptr<RebalanceTask> BeginRebalance() = 0;

  /// Synchronous rebalance: BeginRebalance() → Run() → Commit() in place.
  /// Recomputes the mapping from everything absorbed so far and returns the
  /// account-shard mapping to publish. Every account that has transacted is
  /// assigned; ids that exist only as domain padding (never seen in a
  /// transaction) may read as unassigned — engines hash-route those.
  /// FailedPrecondition while a task is outstanding.
  Result<alloc::Allocation> Rebalance();

  /// The mapping currently in force, before/without a Rebalance. The
  /// default — an empty all-unassigned mapping over k shards — is valid
  /// bootstrap state for an engine running with hash_route_unassigned.
  virtual alloc::Allocation CurrentAllocation() const {
    return alloc::Allocation(0, params_.num_shards);
  }

  /// The parameters this instance streams under (the one-shot path uses the
  /// per-call context's instead).
  const alloc::AllocationParams& online_params() const { return params_; }

 protected:
  alloc::AllocationParams params_;
};

/// Resolves the deterministic node iteration order for `graph`:
/// context-supplied order first, then the registry's account-hash order
/// (grown with id-order tail for accounts the registry does not know),
/// then plain id order.
std::vector<graph::NodeId> ResolveNodeOrder(const AllocationContext& context);

}  // namespace txallo::allocator
