// Background allocator worker: runs allocator::RebalanceTask::Run() off the
// driver's tick loop, so allocation overlaps execution instead of idling
// the shards for `alloc_seconds` at every epoch boundary.
//
// Protocol (driver thread):
//   1. task = online_allocator->BeginRebalance()   (snapshot, owner thread)
//   2. background.Launch(std::move(task))          (Run() starts on worker)
//   3. ... keep submitting/ticking the engine ...
//   4. outcome = background.Collect()              (blocks until Run() done)
//   5. outcome.task->Commit()                      (fold back, owner thread)
//   6. engine->InstallAllocation(outcome.mapping)  (publish, between ticks)
//
// One task in flight at a time; Collect() reports how long the driver
// actually waited, which is what pipeline.cc turns into
// `alloc_overlap_ratio` (run time not covered by driver waiting = overlap).
#pragma once

#include <memory>
#include <optional>
#include <thread>  // txallo-lint: allow(raw-thread) rebalance worker

#include "txallo/alloc/allocation.h"
#include "txallo/allocator/allocator.h"
#include "txallo/common/status.h"
#include "txallo/common/sync.h"

namespace txallo::engine {

class BackgroundAllocator {
 public:
  BackgroundAllocator();
  /// Joins the worker and drops any launched-but-uncollected task WITHOUT
  /// Commit(): an in-flight Run() finishes first, a task the worker never
  /// picked up is not run at all — either way destroying the task abandons
  /// it (the parent allocator releases its outstanding-task bookkeeping and
  /// the mapping is discarded; see allocator::RebalanceTask). Collect()
  /// before destroying when the rebalance result matters.
  ~BackgroundAllocator();

  BackgroundAllocator(const BackgroundAllocator&) = delete;
  BackgroundAllocator& operator=(const BackgroundAllocator&) = delete;

  /// Hands `task` to the worker, which calls Run() once. Fails if a task is
  /// already in flight or `task` is null.
  Status Launch(std::unique_ptr<allocator::RebalanceTask> task);

  /// A task has been launched and not yet collected.
  bool busy() const;

  struct Outcome {
    /// The task, Run() already called; the caller owes it a Commit().
    std::unique_ptr<allocator::RebalanceTask> task;
    /// Run()'s result.
    Result<alloc::Allocation> mapping = Status::Internal("never ran");
    /// Wall-clock seconds Run() took on the worker.
    double run_seconds = 0.0;
    /// Wall-clock seconds this Collect() call blocked the caller — the
    /// non-overlapped share of run_seconds.
    double wait_seconds = 0.0;
  };

  /// Blocks until the in-flight Run() finishes and returns it. Fails with
  /// FailedPrecondition when nothing is in flight.
  Result<Outcome> Collect();

  /// Non-blocking Collect(): returns the outcome when Run() has finished,
  /// nullopt while it is still executing (the task stays in flight — the
  /// epoch-overrun path of pipeline.cc skips the boundary instead of
  /// stalling the tick loop). Fails with FailedPrecondition when nothing
  /// is in flight.
  Result<std::optional<Outcome>> TryCollect();

 private:
  void WorkerMain();
  Outcome HarvestLocked() TXALLO_REQUIRES(mu_);

  mutable common::Mutex mu_;
  common::CondVar cv_worker_;
  common::CondVar cv_owner_;
  bool stopping_ TXALLO_GUARDED_BY(mu_) = false;
  bool in_flight_ TXALLO_GUARDED_BY(mu_) = false;
  bool run_done_ TXALLO_GUARDED_BY(mu_) = false;
  // The task pointer is handed to the worker under mu_; while Run()
  // executes (in_flight_ && !run_done_) the owner never touches it, which
  // is what lets the worker call Run() unlocked on the raw pointee.
  std::unique_ptr<allocator::RebalanceTask> task_ TXALLO_GUARDED_BY(mu_);
  std::optional<Result<alloc::Allocation>> run_result_ TXALLO_GUARDED_BY(mu_);
  double run_seconds_ TXALLO_GUARDED_BY(mu_) = 0.0;
  // Spawned in the constructor, joined in the destructor.
  std::thread worker_;  // txallo-lint: allow(raw-thread)
};

}  // namespace txallo::engine
