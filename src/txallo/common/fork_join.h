// Fork-join over a fixed set of lanes: the one fan-out primitive behind the
// engine's tick and both producer routers.
//
// A pool of `lanes` runs `fn(lane)` once per lane per Run(): lane 0 on the
// calling thread, lanes 1..lanes-1 on persistent helper threads, and Run()
// returns only when every lane has finished. A one-lane pool spawns no
// thread at all — Run() is a plain call. Helpers park on a condvar between
// runs; the protocol is one generation counter (bumped per Run) and one
// remaining-count (helpers still running), both under one Mutex, which
// also publishes every lane's writes to the caller when Run() returns.
//
// This is the only place in src/txallo/ that spawns fan-out threads; the
// long single tasks (engine::BackgroundAllocator, mempool::MempoolCleaner)
// keep their own worker.
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

class ForkJoinPool {
 public:
  /// Spawns `lanes - 1` helper threads; `lanes` is clamped to >= 1.
  explicit ForkJoinPool(uint32_t lanes);

  /// Stops and joins the helpers. No Run() may be in flight.
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Calls fn(lane) for every lane in [0, lanes()) — lane 0 on the caller —
  /// and returns when all have returned. If lanes threw, rethrows one of
  /// their exceptions after every lane has finished. One caller at a time.
  void Run(const std::function<void(uint32_t lane)>& fn);

  uint32_t lanes() const { return lanes_; }

  /// Total seconds the helpers have spent parked waiting for a Run().
  double parked_seconds() const;

 private:
  void HelperMain(uint32_t lane);

  const uint32_t lanes_;
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
