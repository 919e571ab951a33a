#include "txallo/engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

#include "txallo/state/transfer_plan.h"

namespace txallo::engine {

namespace {

// Synthetic per-unit execution cost: a volatile LCG spin the optimizer
// cannot elide, emulating the CPU a real transaction would burn.
void SpinWork(double units, uint64_t iterations_per_unit) {
  const uint64_t n =
      static_cast<uint64_t>(units * static_cast<double>(iterations_per_unit));
  volatile uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
}

// Weight of the synthetic spin in a tick's work estimate: a part counts
// 1 + spin / kSpinIterationsPerItem fork-join work items
// (common/fork_join.h). Fitted together with common::kInlineWorkThreshold
// on bench/engine_scaling, whose ~1,000-part ticks start to gain from a
// second lane at about 50 iterations per work unit.
constexpr double kSpinIterationsPerItem = 16.0;

uint32_t ResolveWorkerCount(const EngineConfig& config) {
  const uint32_t n = config.num_threads == 0 ? common::HardwareThreads()
                                             : config.num_threads;
  return std::max(1u, std::min(n, config.num_shards));
}

}  // namespace

ParallelEngine::ParallelEngine(EngineConfig config,
                               std::shared_ptr<const alloc::Allocation> initial)
    : config_(config),
      coordinator_(config.work),
      state_(config.state.enabled
                 ? std::make_unique<state::StateDb>(config.num_shards,
                                                    config.state)
                 : nullptr),
      num_workers_(ResolveWorkerCount(config)),
      pool_(num_workers_) {
  assert(config_.num_shards > 0);
  if (state_ != nullptr) coordinator_.EnableDecisionCollection();
  lanes_.reserve(config_.num_shards);
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    lanes_.push_back(std::make_unique<ShardLane>());
  }
  // Same shard-count invariant InstallAllocation enforces; a constructor
  // cannot return Status, so a mismatched snapshot is rejected here and
  // reported by the first SubmitBlock instead of silently mis-routing
  // (hash fallback would quietly fold all traffic into the snapshot's k).
  if (initial != nullptr) {
    if (initial->num_shards() == config_.num_shards) {
      routing_ = std::move(initial);
    } else {
      snapshot_error_ = "initial allocation snapshot has " +
                        std::to_string(initial->num_shards()) +
                        " shards, engine has " +
                        std::to_string(config_.num_shards) +
                        "; snapshot rejected";
    }
  }
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::ExecuteBlock(uint32_t shard, ShardLane& lane,
                                  uint64_t block, bool record) {
  // Staging is already in sequence order: the driver submitted it.
  lane.fifo.insert(lane.fifo.end(),
                   std::make_move_iterator(lane.staging.begin()),
                   std::make_move_iterator(lane.staging.end()));
  lane.staging.clear();
  double budget = config_.work.capacity_per_block;
  // Migration debt (account records this shard sent/received at the last
  // install) is paid off the top of the budget: moving state is work the
  // shard cannot spend on transactions.
  if (lane.migration_debt > 0.0) {
    const double paid = std::min(budget, lane.migration_debt);
    lane.migration_debt -= paid;
    budget -= paid;
  }
  while (budget > 0.0 && !lane.fifo.empty()) {
    WorkItem& item = lane.fifo.front();
    const double consumed = std::min(budget, item.work_remaining);
    if (config_.spin_iterations_per_unit > 0) {
      SpinWork(consumed, config_.spin_iterations_per_unit);
    }
    item.work_remaining -= consumed;
    budget -= consumed;
    lane.processed_work += consumed;
    if (item.work_remaining <= 1e-12) {
      if (record) {
        lane.prepare_log.push_back(PrepareEvent{block, shard, item.seq});
      }
      // The vote is cast by the driver after the join (stage + vote in
      // canonical lane order), not here: state mutation must not race
      // across lanes, and a migrated record may live on a shard another
      // lane owns.
      lane.finished.push_back(
          FinishedPart{item.tx_index, item.seq, std::move(item.ops)});
      lane.fifo.pop_front();
    }
  }
}

Status ParallelEngine::SubmitBlock(
    const std::vector<chain::Transaction>& transactions) {
  // Transaction i of the block takes tag base_seq + i, whether or not the
  // block routes.
  const uint64_t base_seq = next_seq_;
  next_seq_ += transactions.size();
  if (routing_ == nullptr) {
    return Status::FailedPrecondition(
        snapshot_error_.empty()
            ? "no allocation snapshot installed before SubmitBlock"
            : snapshot_error_);
  }
  const alloc::Allocation& routing = *routing_;
  // account_shards[j] is the shard of tx.accounts()[j]; shards lists the
  // distinct ones in order of first appearance (the lanes' queueing order).
  std::vector<alloc::ShardId> account_shards;
  std::vector<alloc::ShardId> shards;
  for (size_t i = 0; i < transactions.size(); ++i) {
    const chain::Transaction& tx = transactions[i];
    account_shards.clear();
    shards.clear();
    for (chain::AccountId a : tx.accounts()) {
      const alloc::ShardId s =
          routing.RouteOf(a, config_.hash_route_unassigned);
      if (s == alloc::kUnassignedShard) {
        return Status::FailedPrecondition("unassigned account " +
                                          std::to_string(a) +
                                          " submitted to executor");
      }
      if (s >= config_.num_shards) {
        return Status::FailedPrecondition(
            "allocation snapshot routed account to shard " +
            std::to_string(s) + " outside the engine's " +
            std::to_string(config_.num_shards) + " shards");
      }
      account_shards.push_back(s);
      if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
        shards.push_back(s);
      }
    }
    if (shards.empty()) continue;
    const bool cross = shards.size() > 1;
    const uint64_t seq = base_seq + i;
    const uint64_t tx_index = coordinator_.Register(
        now_, static_cast<uint32_t>(shards.size()), cross, seq);
    const double work = config_.work.PartWork(cross);
    // With the state backend on, the transaction's deterministic transfer
    // plan is sliced across its parts: each part carries the ops of the
    // accounts that routed to its shard. The plan has one op per account of
    // tx.accounts(), in the same order, so ops[j] goes where account j did.
    std::vector<state::Op> ops;
    if (state_ != nullptr) {
      ops = state::BuildTransferOps(tx, seq);
      assert(ops.size() == account_shards.size());
    }
    for (alloc::ShardId s : shards) {
      WorkItem item{tx_index, seq, work, {}};
      for (size_t j = 0; j < ops.size(); ++j) {
        if (account_shards[j] == s) item.ops.push_back(ops[j]);
      }
      ShardLane& lane = *lanes_[s];
      lane.staging.push_back(std::move(item));
      lane.staging_high_water =
          std::max<uint64_t>(lane.staging_high_water, lane.staging.size());
    }
  }
  return Status::OK();
}

Status ParallelEngine::InstallAllocation(
    std::shared_ptr<const alloc::Allocation> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("null allocation snapshot");
  }
  if (next->num_shards() != config_.num_shards) {
    return Status::InvalidArgument(
        "allocation snapshot has " + std::to_string(next->num_shards()) +
        " shards, engine has " + std::to_string(config_.num_shards));
  }
  routing_ = std::move(next);
  snapshot_error_.clear();
  ++reallocations_;
  if (state_ != nullptr) state_pending_sync_ = true;
  return Status::OK();
}

void ParallelEngine::SyncStateResidency() {
  state::MigrationReport moved;
  if (state_pending_sync_) {
    state_pending_sync_ = false;
    moved = state_->BeginMigration(routing_, config_.hash_route_unassigned);
  } else if (state_->migration_pending()) {
    // Records an earlier pass could not move (reservation-locked by an
    // in-flight cross-shard round) are retried every tick until clean.
    moved = state_->ContinueMigration();
  } else {
    return;
  }
  accounts_migrated_ += moved.accounts_moved;
  if (config_.state.migration_work_per_account > 0.0 &&
      moved.accounts_moved > 0) {
    for (uint32_t s = 0; s < config_.num_shards; ++s) {
      const uint64_t records = moved.moved_out[s] + moved.moved_in[s];
      if (records > 0) {
        lanes_[s]->migration_debt += static_cast<double>(records) *
                                     config_.state.migration_work_per_account;
      }
    }
  }
}

uint64_t ParallelEngine::TickWorkEstimate() {
  // A one-lane pool runs inline whatever the estimate.
  if (num_workers_ == 1) return 0;
  // A shard runs what is queued, up to one block of λ: every part costs at
  // least one work unit, plus at most one partly-run part at the front.
  const double max_parts = std::floor(config_.work.capacity_per_block) + 1.0;
  double parts = 0.0;
  for (const std::unique_ptr<ShardLane>& lane : lanes_) {
    const size_t queued = lane->fifo.size() + lane->staging.size();
    parts += std::min(static_cast<double>(queued), max_parts);
  }
  const double items =
      parts * (1.0 + static_cast<double>(config_.spin_iterations_per_unit) /
                         kSpinIterationsPerItem);
  return static_cast<uint64_t>(std::min(items, 1e18));
}

void ParallelEngine::Tick() {
  // State residency syncs before the tick's lanes run: the migration debt
  // it charges must be visible to this tick's ExecuteBlock (the pool's
  // fork publishes the lane writes).
  if (state_ != nullptr) SyncStateResidency();
  const uint64_t block = ++now_;
  const bool record = record_trace_;
  pool_.Run(TickWorkEstimate(), [this, block, record](uint32_t lane) {
    for (uint32_t s = lane; s < config_.num_shards; s += num_workers_) {
      ExecuteBlock(s, *lanes_[s], block, record);
    }
  });
  // The lanes have joined; only the driver touches lane state and the
  // coordinator now. Stage + vote the tick's finished parts in canonical
  // (shard, lane-position) order — driver-side so the state DB is mutated
  // by exactly one thread, in an order independent of lane striping.
  const uint64_t now = block;
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    ShardLane& lane = *lanes_[s];
    for (FinishedPart& part : lane.finished) {
      bool ok = true;
      if (state_ != nullptr) {
        ok = state_->StagePart(part.seq, part.ops, s);
      }
      coordinator_.PartExecuted(part.tx_index, now, ok);
    }
    lane.finished.clear();
  }
  coordinator_.FlushDelayed(now);
  if (state_ != nullptr || observe_commits_) {
    // Apply the tick's 2PC decisions to the staged state (commits land
    // their thunks, aborts revert to the exact pre-transaction records) and
    // park them for the driver when commit observation is on.
    for (const TwoPhaseCoordinator::Decision& decision :
         coordinator_.TakeDecisions()) {
      if (state_ != nullptr) {
        if (decision.aborted) {
          state_->Abort(decision.seq);
        } else {
          state_->Commit(decision.seq);
        }
      }
      if (observe_commits_) observed_commits_.push_back(decision);
    }
  }
  if (state_ != nullptr && record) {
    tick_roots_.push_back(TickStateRoot{now, state_->GlobalRoot()});
  }
}

EngineReport ParallelEngine::Snapshot() {
  EngineReport report;
  report.worker_stall_seconds = pool_.parked_seconds();
  report.fanned_out_ticks = pool_.fan_outs();
  report.num_workers = num_workers_;
  const CommitStats stats = coordinator_.stats();
  const uint64_t now = now_;
  report.sim.submitted = stats.submitted;
  report.sim.committed = stats.committed;
  report.sim.cross_shard_submitted = stats.cross_shard_submitted;
  report.sim.blocks_elapsed = now;
  if (now > 0) {
    report.sim.throughput_per_block =
        static_cast<double>(stats.committed) / static_cast<double>(now);
  }
  if (stats.committed > 0) {
    report.sim.avg_latency_blocks =
        stats.latency_sum_blocks / static_cast<double>(stats.committed);
  }
  report.sim.max_latency_blocks = stats.latency_max_blocks;
  report.commit_latency_blocks = coordinator_.LatencyHistogram();
  report.prepares_received = stats.prepares_received;
  report.cross_shard_committed = stats.cross_shard_committed;
  report.aborted = stats.aborted;
  report.cross_shard_aborted = stats.cross_shard_aborted;
  report.accounts_migrated = accounts_migrated_;

  double utilization = 0.0;
  double residual = 0.0;
  report.max_queue_depth.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    if (now > 0) {
      utilization += lane->processed_work / (config_.work.capacity_per_block *
                                             static_cast<double>(now));
    }
    for (const WorkItem& item : lane->fifo) residual += item.work_remaining;
    for (const WorkItem& item : lane->staging) residual += item.work_remaining;
    report.max_queue_depth.push_back(lane->staging_high_water);
  }
  report.sim.mean_utilization =
      utilization / static_cast<double>(config_.num_shards);
  report.sim.residual_work = residual;
  report.reallocations = reallocations_;
  return report;
}

void ParallelEngine::EnableTraceRecording() {
  record_trace_ = true;
  coordinator_.EnableEventRecording();
}

void ParallelEngine::EnableCommitObservation() {
  observe_commits_ = true;
  coordinator_.EnableDecisionCollection();
}

std::vector<TwoPhaseCoordinator::Decision>
ParallelEngine::TakeObservedCommits() {
  return std::exchange(observed_commits_, {});
}

ParallelEngine::Trace ParallelEngine::ExtractTrace() {
  Trace trace;
  // Lanes are concatenated in shard order, each already in execution order
  // with non-decreasing blocks; the stable sort interleaves them into the
  // canonical (block, shard, lane-position) stream.
  for (const auto& lane : lanes_) {
    trace.prepares.insert(trace.prepares.end(), lane->prepare_log.begin(),
                          lane->prepare_log.end());
  }
  std::stable_sort(trace.prepares.begin(), trace.prepares.end(),
                   [](const PrepareEvent& a, const PrepareEvent& b) {
                     return a.block < b.block;
                   });
  trace.commits = coordinator_.CanonicalCommitEvents();
  trace.state_roots = tick_roots_;
  return trace;
}

EngineReport ParallelEngine::DrainAndReport(uint64_t max_extra_blocks) {
  for (uint64_t i = 0; i < max_extra_blocks && !coordinator_.Idle(); ++i) {
    Tick();
  }
  return Snapshot();
}

}  // namespace txallo::engine
