// Ingest router shim: forwards a block to ParallelEngine::SubmitBlock.
//
// The engine has one producer, the driver (see the threading contract in
// engine.h), so a block has nothing to fan out over. The class stays only
// because the perf ledger's traced driver (bench/perf/traced_pipeline.cc)
// still constructs it; it goes together with that driver copy.
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"

namespace txallo::engine {

class IngestRouter {
 public:
  /// Forwards to `engine`, which must outlive the router. The producer
  /// count is ignored.
  IngestRouter(ParallelEngine* engine, uint32_t /*num_producers*/)
      : engine_(engine) {}

  IngestRouter(const IngestRouter&) = delete;
  IngestRouter& operator=(const IngestRouter&) = delete;

  /// ParallelEngine::SubmitBlock.
  Status SubmitBlock(const std::vector<chain::Transaction>& transactions) {
    return engine_->SubmitBlock(transactions);
  }

 private:
  ParallelEngine* const engine_;
};

}  // namespace txallo::engine
