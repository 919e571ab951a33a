// Fork-join over a fixed set of lanes: the fan-out primitive behind the
// engine's tick (engine::ParallelEngine, its only user).
//
// A pool of `lanes` runs `fn(lane)` once per lane per Run(), and Run()
// returns only when every lane has finished. Each Run() takes the caller's
// estimate of the fork's work, in items of about 100 ns on the calibration
// host: one transaction part executed with no synthetic spin. Below
// kInlineWorkThreshold items, waking the helpers costs more than the work
// they would spread, so Run() calls every lane in lane order on the calling
// thread and the helpers stay parked. At or above it, lane
// 0 runs on the caller and lanes 1..lanes-1 on persistent helper threads.
// A one-lane pool spawns no thread at all and always runs inline. Which
// path a Run() takes never changes what the lanes compute, only where.
//
// Helpers park on a condvar between forks; the protocol is one generation
// counter (bumped per fanned-out Run) and one remaining-count (helpers still
// running), both under one Mutex, which also publishes every lane's writes
// to the caller when Run() returns.
//
// This is the only place in src/txallo/ that spawns fan-out threads; the
// one long single task (engine::BackgroundAllocator) keeps its own worker.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>  // txallo-lint: allow(raw-thread) fork-join helpers
#include <vector>

#include "txallo/common/sync.h"

namespace txallo::common {

/// Threads the host can run at once (std::thread::hardware_concurrency),
/// at least 1. The capacity query behind every "0 = auto" thread count.
uint32_t HardwareThreads();

/// Work estimate, in items (see above), from which a Run() fans out to the
/// helpers. Calibrated with bench/engine_scaling: on a 4-vCPU x86-64 host a
/// two-lane tick first beats one lane at about this much work.
inline constexpr uint64_t kInlineWorkThreshold = 4'096;

class ForkJoinPool {
 public:
  /// Spawns `lanes - 1` helper threads; `lanes` is clamped to >= 1.
  explicit ForkJoinPool(uint32_t lanes);

  /// Stops and joins the helpers. No Run() may be in flight.
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Calls fn(lane) for every lane in [0, lanes()) and returns when all
  /// have returned: in lane order on the caller when `work` is below
  /// kInlineWorkThreshold (or the pool has one lane), otherwise lane 0 on
  /// the caller and the rest on the helpers. If lanes threw, rethrows one
  /// of their exceptions after every lane has finished. One caller at a
  /// time.
  void Run(uint64_t work, const std::function<void(uint32_t lane)>& fn);

  uint32_t lanes() const { return lanes_; }

  /// Run() calls that woke the helpers (the rest ran inline). Caller's
  /// thread only, like Run().
  uint64_t fan_outs() const { return fan_outs_; }

  /// Total seconds the helpers have spent parked, summed over the parks
  /// that have ended: a park still in progress is not counted. Inline runs
  /// leave the helpers parked, so a pool that never fans out reports 0.
  double parked_seconds() const;

 private:
  void HelperMain(uint32_t lane);

  const uint32_t lanes_;
  // Touched only by the one thread calling Run().
  uint64_t fan_outs_ = 0;
  mutable Mutex mu_;
  CondVar cv_helpers_;
  CondVar cv_caller_;
  uint64_t generation_ TXALLO_GUARDED_BY(mu_) = 0;
  uint32_t remaining_ TXALLO_GUARDED_BY(mu_) = 0;
  bool stopping_ TXALLO_GUARDED_BY(mu_) = false;
  const std::function<void(uint32_t)>* fn_ TXALLO_GUARDED_BY(mu_) = nullptr;
  double parked_seconds_ TXALLO_GUARDED_BY(mu_) = 0.0;
  // The first exception a lane threw during the current Run().
  std::exception_ptr error_ TXALLO_GUARDED_BY(mu_);
  // Filled in the constructor, joined in the destructor; nothing else
  // touches the vector.
  std::vector<std::thread> helpers_;  // txallo-lint: allow(raw-thread)
};

}  // namespace txallo::common
