// Mempool cleaner shim: constructing one has no effect.
//
// The mempool compacts on the driver, at the end of Mempool::SealTick (see
// mempool.h), so there is no background pass to start. The class stays only
// because the perf ledger's traced driver (bench/perf/traced_pipeline.cc)
// still constructs it; it goes together with that driver copy.
#pragma once

#include "txallo/mempool/mempool.h"

namespace txallo::mempool {

class MempoolCleaner {
 public:
  /// Does nothing; `pool` compacts itself at the seal.
  explicit MempoolCleaner(Mempool* /*pool*/) {}

  MempoolCleaner(const MempoolCleaner&) = delete;
  MempoolCleaner& operator=(const MempoolCleaner&) = delete;
};

}  // namespace txallo::mempool
