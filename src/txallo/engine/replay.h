// Deterministic record/replay for the parallel engine.
//
// A ReplayLog is the full deterministic trace of one
// engine::RunReallocatedStream run:
//
//   * the canonical per-tick, per-shard prepare order (PrepareEvent stream)
//     and the 2PC outcome stream (CommitEvent, (block, seq)-sorted, commits
//     and aborts alike), both keyed by ingest sequence tags so they survive
//     thread-count changes;
//   * with the account-state backend on, the per-tick global Merkle root
//     (TickStateRoot stream) — the structural fingerprint replay verifies
//     bit-identically, which pins not just *which* transactions committed
//     but the exact balances/sequences they left behind;
//   * every installed allocation snapshot with the logical block it took
//     effect at (InstallEvent) — replay re-installs these instead of
//     running an allocator, which is why a trace recorded under
//     `background` replays identically under `sync` or no allocator at all;
//   * the per-step StepMetrics series and the run's wall-clock allocation
//     observations (alloc_seconds & co. are preserved verbatim on replay:
//     wall time is not reproducible, the logical schedule is);
//   * the run's logical configuration (Meta: shard count, work model,
//     state backend, epoch cadence, ingest parameters, ledger fingerprint)
//     so a replay against the wrong input fails loudly, naming the field,
//     instead of diverging quietly.
//
// replay.cc describes each record once, as an ordered list of named
// fields with the wall-clock ones tagged. The binary writer and reader,
// the CSV dump, the divergence check and the pipeline's replay guard all
// walk those lists, so a divergence or a refused replay names the field
// (`step[1].latency_p99_ticks: recorded 7 vs replayed 8`, `meta.eta: ...`).
//
// Record with PipelineConfig::record, replay with PipelineConfig::replay
// (or ReplayRecordedStream below). Serialization: a compact little-endian
// binary format (Save/LoadReplayLog) for fixtures and bug reports, plus a
// one-way CSV dump (DumpReplayLogCsv) for eyeballing a trace in a
// spreadsheet. `bench/timeline_series --record/--replay` and
// `examples/replay_debug` drive both ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"

namespace txallo::engine {

/// An allocation snapshot publication: `allocation` took effect once the
/// engine's logical clock reached `block` (before the next block's ingest).
struct InstallEvent {
  uint64_t block = 0;
  alloc::Allocation allocation;
};

/// The recorded trace of one pipelined engine run. Plain data — build one
/// by passing it as PipelineConfig::record.
class ReplayLog {
 public:
  struct Meta {
    uint32_t num_shards = 0;
    /// Work-model fingerprint (must match the replaying engine's exactly).
    double eta = 0.0;
    double capacity_per_block = 0.0;
    uint32_t cross_shard_commit_rounds = 0;
    /// Account-state backend fingerprint. Balance/work fields are
    /// normalized to zero when the backend is off, so two state-less
    /// traces always agree regardless of ignored config.
    bool state_enabled = false;
    int64_t state_initial_balance = 0;
    double state_migration_work = 0.0;
    /// Epoch cadence of the recorded run; replay re-uses it.
    uint32_t blocks_per_epoch = 0;
    /// Input-stream fingerprint (FingerprintLedger).
    uint64_t ledger_blocks = 0;
    uint64_t ledger_transactions = 0;
    uint64_t ledger_fingerprint = 0;
    /// Ingest mode of the recorded run (IngestMode as u8; 0 = closed loop);
    /// replay re-uses it. The open-loop driving parameters below are
    /// normalized to zero for closed-loop traces, so two closed-loop traces
    /// always agree regardless of ignored config. Physical-only knobs
    /// (compaction threshold, chunk sizes) are deliberately absent — they
    /// cannot change any recorded byte.
    uint8_t ingest_mode = 0;
    double offered_load = 0.0;
    uint32_t dispatch_per_tick = 0;
    uint32_t fee_levels = 0;
    uint64_t fee_seed = 0;
    uint64_t mempool_capacity = 0;
    uint64_t mempool_staging_capacity = 0;
    uint32_t account_pending_limit = 0;
    uint32_t account_rate_limit = 0;
    uint64_t ttl_ticks = 0;
    /// mempool::AdmissionPolicy as u8.
    uint8_t admission_policy = 0;
    /// Workload scenario spec of the recorded run ("name:key=val,..." from
    /// the scenario registry; empty for programmatic ledgers). The ledger
    /// fingerprint is the binding check; this names the workload so a
    /// gauntlet trace can be replayed against the regenerated scenario, and
    /// a non-empty PipelineConfig::workload_spec must match on replay.
    std::string workload_spec;
  };

  Meta meta;
  /// Canonical (block, shard, lane-position) prepare stream.
  std::vector<PrepareEvent> prepares;
  /// Canonical (block, seq) commit stream (aborted outcomes included).
  std::vector<CommitEvent> commits;
  /// Per-tick global Merkle roots (empty unless the state backend was on).
  std::vector<TickStateRoot> state_roots;
  /// Installed snapshots in block order (the first is the initial mapping).
  std::vector<InstallEvent> installs;
  /// Per-step series, including the trailing drain step when one occurred.
  std::vector<StepMetrics> steps;

  // Wall-clock observations of the recorded run (preserved, not
  // re-measured, on replay).
  double alloc_seconds = 0.0;
  double alloc_wait_seconds = 0.0;
  double alloc_overlap_ratio = 0.0;
  uint64_t epochs = 0;
  uint64_t accounts_moved = 0;
};

/// Order- and content-sensitive hash of a ledger's transaction stream
/// (SHA-256 over block/account structure, truncated to 64 bits). Two
/// ledgers with the same fingerprint replay a trace identically.
uint64_t FingerprintLedger(const chain::Ledger& ledger);

/// The first difference between two logs' *deterministic* content — meta,
/// the prepare/commit/state-root/install/step streams (steps' logical
/// fields), epochs and accounts_moved — named by field, e.g.
/// `commit[12].aborted: recorded 0 vs replayed 1` or `install count: ...`;
/// "" when bit-identical. Wall-clock fields (alloc_seconds & co.) are not
/// compared.
std::string DescribeTraceDivergence(const ReplayLog& recorded,
                                    const ReplayLog& replayed);

/// Companion to DescribeTraceDivergence for prepare-order bugs: splits both
/// logs' prepare streams into per-shard lanes and prints, for every lane
/// that differs, a side-by-side diff anchored at the first divergent entry
/// (its tick, plus `context` entries either side). "" when every lane
/// matches. Unlike DescribeTraceDivergence — which stops at the first
/// global difference — this shows *where in each shard's order* two runs
/// came apart, which is the question when a scheduler change reorders
/// lanes.
std::string DescribeLaneDivergence(const ReplayLog& recorded,
                                   const ReplayLog& replayed,
                                   size_t context = 3);

/// Re-executes `log` on `engine` against `ledger`: same windows, recorded
/// installs at their recorded blocks, no allocator. `config` contributes
/// no logical input (blocks_per_epoch / allocator_mode / replay are
/// ignored, record is honoured); the execution shape is the engine's
/// thread count. The engine must be fresh and configured compatibly (shard
/// count, work model, hash_route_unassigned). Returns the re-executed run's
/// PipelineResult; fails with Internal if any deterministic field diverged
/// from the log.
Result<PipelineResult> ReplayRecordedStream(const chain::Ledger& ledger,
                                            const ReplayLog& log,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config);

/// OK when every enum field of `meta` (ingest_mode, admission_policy) is in
/// its enum's range; otherwise InvalidArgument naming the field. The
/// loader, SaveReplayLog and the pipeline's replay guard share this check.
Status CheckReplayMeta(const ReplayLog::Meta& meta);

/// Writes `log` in the compact binary trace format (magic "TXTRACE4",
/// fixed-width little-endian fields in the order of replay.cc's field
/// lists; an install's mapping is its account count, shard count and one
/// u32 shard per account). Traces of earlier versions are rejected as
/// version drift, not silently upgraded — the recorded semantics differ.
/// A meta that CheckReplayMeta refuses is InvalidArgument, and nothing is
/// written.
Status SaveReplayLog(const ReplayLog& log, const std::string& path);

/// Reads a trace written by SaveReplayLog. Version drift, short or
/// trailing bytes, a bool byte other than 0/1, an ingest_mode or
/// admission_policy outside its enum, and a mapping shard ≥ its shard
/// count are Corruption errors naming where the bytes went wrong.
Result<ReplayLog> LoadReplayLog(const std::string& path);

/// One-way human-readable dump: one CSV row per logical meta field /
/// install / step / prepare / commit / state root, tagged by a leading
/// `kind` column (wall-clock fields are left out). Doubles print at
/// max_digits10 significant digits, so they round-trip.
Status DumpReplayLogCsv(const ReplayLog& log, const std::string& path);

}  // namespace txallo::engine
