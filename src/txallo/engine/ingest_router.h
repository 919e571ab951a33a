// Sharded ingest router: one block of transactions routed into the engine's
// per-shard staging buffers by N producer lanes in parallel.
//
// ParallelEngine::SubmitTransactions is multi-producer safe (routing reads
// one copy-on-write allocation snapshot, the 2PC registry and the staging
// buffers are mutex-guarded) — the router is the fan-out on top of it: a
// common::ForkJoinPool of N lanes, each taking one contiguous slice of the
// submitted block. Lane 0 is the calling driver thread, so N producers cost
// N-1 helper threads; a block smaller than common::kInlineWorkThreshold
// transactions runs every lane on the driver and wakes none. The ingest
// phase is still bracketed by the engine's logical clock: SubmitBlock()
// returns only when every lane has routed its slice, so Tick() never
// overlaps in-flight submissions (the same driver contract SubmitBlock
// always had, with the parallelism inside).
//
// Determinism: SubmitBlock reserves the block's ingest sequence range once
// on the driver (engine::ParallelEngine::ReserveSequenceRange), and every
// lane submits its slice with explicit tags — transaction i of the block
// always carries tag base + i, whatever the lane interleaving. Combined
// with the engine's lane-side sort, per-lane FIFO order — and therefore
// which transactions fit a tight λ budget first — is byte-identical to the
// single-driver path, so the whole report matches exactly at any λ and
// producer count (the router stress and the ingest-order property tests
// pin this).
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/common/fork_join.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"

namespace txallo::engine {

class IngestRouter {
 public:
  /// Fork-join work items (common/fork_join.h) one routed transaction
  /// counts for: the block size times this is the Run() estimate. One
  /// producer routes a transaction in about one item's time (76–145 ns a
  /// transaction on the calibration host, bench/router_scaling).
  static constexpr uint64_t kItemsPerRoutedTx = 1;

  /// Routes through `num_producers` (clamped to >= 1) lanes into `engine`,
  /// which must outlive the router.
  IngestRouter(ParallelEngine* engine, uint32_t num_producers);

  IngestRouter(const IngestRouter&) = delete;
  IngestRouter& operator=(const IngestRouter&) = delete;

  /// Splits `transactions` into contiguous slices, one per producer lane,
  /// and blocks until every slice is routed. One caller at a time (the
  /// driver); must not overlap the engine's Tick/Snapshot/DrainAndReport.
  Status SubmitBlock(const std::vector<chain::Transaction>& transactions);

  uint32_t num_producers() const { return pool_.lanes(); }

 private:
  ParallelEngine* const engine_;
  common::ForkJoinPool pool_;
};

}  // namespace txallo::engine
