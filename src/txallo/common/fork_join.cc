#include "txallo/common/fork_join.h"

#include <algorithm>
#include <utility>

#include "txallo/common/stopwatch.h"

namespace txallo::common {

uint32_t HardwareThreads() {
  // txallo-lint: allow(raw-thread) capacity query, not thread creation
  return std::max(1u, std::thread::hardware_concurrency());
}

ForkJoinPool::ForkJoinPool(uint32_t lanes) : lanes_(std::max(1u, lanes)) {
  helpers_.reserve(lanes_ - 1);
  for (uint32_t lane = 1; lane < lanes_; ++lane) {
    helpers_.emplace_back(&ForkJoinPool::HelperMain, this, lane);
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_helpers_.NotifyAll();
  // txallo-lint: allow(raw-thread)
  for (std::thread& helper : helpers_) helper.join();
}

void ForkJoinPool::HelperMain(uint32_t lane) {
  uint64_t seen = 0;
  mu_.Lock();
  for (;;) {
    Stopwatch parked;
    while (!stopping_ && generation_ == seen) cv_helpers_.Wait(mu_);
    parked_seconds_ += parked.ElapsedSeconds();
    if (stopping_) break;
    seen = generation_;
    const std::function<void(uint32_t)>* fn = fn_;
    mu_.Unlock();
    std::exception_ptr error;
    try {
      (*fn)(lane);
    } catch (...) {
      error = std::current_exception();
    }
    mu_.Lock();
    if (error && !error_) error_ = std::move(error);
    if (--remaining_ == 0) cv_caller_.NotifyOne();
  }
  mu_.Unlock();
}

void ForkJoinPool::Run(const std::function<void(uint32_t lane)>& fn) {
  if (lanes_ == 1) {
    fn(0);
    return;
  }
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    remaining_ = lanes_ - 1;
    ++generation_;
  }
  cv_helpers_.NotifyAll();
  // Lane 0 must not unwind past the join: the helpers still read `fn`.
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    MutexLock lock(mu_);
    while (remaining_ > 0) cv_caller_.Wait(mu_);
    fn_ = nullptr;
    if (!error) error = std::move(error_);
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

double ForkJoinPool::parked_seconds() const {
  MutexLock lock(mu_);
  return parked_seconds_;
}

}  // namespace txallo::common
