// perf_ledger's traced repetition: a bench-side re-drive of
// engine::RunReallocatedStream that calls each layer's public functions
// itself and times every call as a span.
//
// The untraced repetitions measure the real pipeline; this driver exists
// only so the per-layer breakdown has call boundaries to time without
// putting spans inside the library. It supports the two allocator
// schedules the benchmark's workloads use (kDriverSync and kBackground
// without epoch overrun) in both ingest modes, and perf_ledger checks that
// its logical output (step series, histograms, counters, state root) equals
// the untraced run's, so the breakdown measures the same program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"

namespace perf {

/// Span lanes (Chrome trace "tid"s).
inline constexpr uint32_t kDriverLane = 0;
inline constexpr uint32_t kAllocatorLane = 1;

/// One timed call. Times are nanoseconds since the recorder's origin.
struct Span {
  /// "layer.call" string literal; the prefix before '.' is the layer.
  const char* name;
  uint32_t lane;
  int64_t start_ns;
  int64_t end_ns;
  /// Index of the span that caused this one; -1 for a root.
  int32_t parent;
};

/// In-memory span list, written out once at the end. Driver-lane spans nest
/// through an open-span stack; spans timed on another thread are added
/// after the fact with AddForeign.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a driver-lane span; its parent is the innermost open span.
  int32_t Open(const char* name);
  void Close(int32_t id);
  /// Records a span timed on `lane` with an explicit parent.
  void AddForeign(const char* name, uint32_t lane, int32_t parent,
                  Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it that same-lane child spans
  /// cover (a foreign-lane child runs concurrently and takes nothing away).
  std::vector<int64_t> SelfTimes() const;

  /// Chrome trace-event JSON (complete "X" events, one tid per lane, with
  /// parent index and self time in args).
  txallo::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t Since(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a driver-lane span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Open(name)) {}
  ~ScopedSpan() { recorder_->Close(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

/// RunReallocatedStream's contract and result, with every layer call
/// recorded into `spans` under the currently open span. Fails with
/// InvalidArgument for the schedules it does not drive (kDriverDeferred,
/// allow_epoch_overrun, record/replay).
txallo::Result<txallo::engine::PipelineResult> RunTracedStream(
    const txallo::chain::Ledger& ledger,
    txallo::allocator::OnlineAllocator* alloc,
    txallo::engine::ParallelEngine* engine,
    const txallo::engine::PipelineConfig& config, SpanRecorder* spans);

}  // namespace perf
