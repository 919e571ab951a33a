// Abort-path property tests (the "state" + "engine" labels: these run
// under the sanitizer presets too).
//
// (a) Randomized rounds of staged/committed/aborted cross-shard
//     transactions — with migrations interleaved — must leave the sharded
//     StateDb byte-identical to a flat serial reference execution that
//     knows nothing about shards, residency, reservations-vs-migration
//     interactions or Merkle upkeep.
// (b) The engine end-to-end: the same submission sequence under different
//     worker-thread counts must produce byte-identical final account
//     records, the same Merkle fingerprint and the same abort decisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/rng.h"
#include "txallo/engine/engine.h"
#include "txallo/state/state_db.h"
#include "txallo/state/transfer_plan.h"

namespace txallo::state {
namespace {

constexpr uint32_t kShards = 4;
constexpr int64_t kFunding = 25;  // Tight: overdraw aborts must happen.
constexpr chain::AccountId kAccounts = 48;

StateConfig Config() {
  StateConfig config;
  config.enabled = true;
  config.initial_balance = kFunding;
  return config;
}

// Flat serial reference: one account map, no shards, no tries, no
// copy-on-write — an independent re-statement of the staging contract
// (lazy funded creation, nonce check, spendable = balance - reserved,
// commit applies credit-minus-debit and bumps the nonce of debited
// accounts, abort releases reservations only).
class SerialReference {
 public:
  explicit SerialReference(int64_t initial_balance)
      : initial_balance_(initial_balance) {}

  bool Stage(uint64_t seq, const Op& op) {
    auto [it, created] =
        records_.try_emplace(op.account, AccountState{initial_balance_, 0});
    // Creation is committed state: it survives a later failure or abort.
    AccountState& record = it->second;
    if (op.require_sequence != kAnySequence &&
        op.require_sequence != record.sequence) {
      return false;
    }
    if (op.debit > record.balance - reserved_[op.account]) return false;
    reserved_[op.account] += op.debit;
    staged_[seq].push_back(op);
    return true;
  }

  void Commit(uint64_t seq) {
    for (const Op& op : staged_[seq]) {
      AccountState& record = records_.at(op.account);
      record.balance += op.credit - op.debit;
      if (op.debit > 0) ++record.sequence;
      reserved_[op.account] -= op.debit;
    }
    staged_.erase(seq);
  }

  void Abort(uint64_t seq) {
    for (const Op& op : staged_[seq]) reserved_[op.account] -= op.debit;
    staged_.erase(seq);
  }

  const std::map<chain::AccountId, AccountState>& records() const {
    return records_;
  }

 private:
  const int64_t initial_balance_;
  std::map<chain::AccountId, AccountState> records_;
  std::map<chain::AccountId, int64_t> reserved_;
  std::map<uint64_t, std::vector<Op>> staged_;
};

// Every committed record in the sharded DB, merged across shards into
// account order — the byte-level content the reference is compared to.
std::map<chain::AccountId, AccountState> MergedRecords(StateDb& db) {
  std::map<chain::AccountId, AccountState> merged;
  for (uint32_t s = 0; s < db.num_shards(); ++s) {
    for (const auto& [account, record] : db.shard(s).SortedRecords()) {
      EXPECT_TRUE(merged.emplace(account, record).second)
          << "account " << account << " resides on two shards";
    }
  }
  return merged;
}

// Mimics the engine driver for one transaction: split the sorted op list
// into per-shard parts by placement routing, stage every part (lane
// order), and report the unanimous-vote outcome. A failed StageOp fails
// its part at that op (later ops of the part are never staged) but the
// remaining parts still stage — exactly the engine's per-lane behaviour.
bool StageTransaction(StateDb& db, SerialReference& reference, uint64_t seq,
                      const std::vector<Op>& ops) {
  std::map<uint32_t, std::vector<Op>> parts;
  for (const Op& op : ops) {
    parts[static_cast<uint32_t>(op.account % kShards)].push_back(op);
  }
  bool all_ok = true;
  for (const auto& [placement, part_ops] : parts) {
    if (!db.StagePart(seq, part_ops, placement)) all_ok = false;
    bool ref_ok = true;
    for (const Op& op : part_ops) {
      if (ref_ok) ref_ok = reference.Stage(seq, op);
    }
    if (!ref_ok) all_ok = false;
  }
  return all_ok;
}

chain::Transaction RandomTransaction(Rng& rng) {
  const size_t num_inputs = 1 + rng.NextBounded(3);
  const size_t num_outputs = 1 + rng.NextBounded(2);
  std::vector<chain::AccountId> inputs;
  std::vector<chain::AccountId> outputs;
  for (size_t i = 0; i < num_inputs; ++i) {
    inputs.push_back(static_cast<chain::AccountId>(rng.NextBounded(kAccounts)));
  }
  for (size_t i = 0; i < num_outputs; ++i) {
    outputs.push_back(
        static_cast<chain::AccountId>(rng.NextBounded(kAccounts)));
  }
  return chain::Transaction(inputs, outputs);
}

std::shared_ptr<const alloc::Allocation> RandomMapping(Rng& rng) {
  auto mapping = std::make_shared<alloc::Allocation>(kAccounts, kShards);
  for (chain::AccountId a = 0; a < kAccounts; ++a) {
    // Leave some accounts unassigned so the hash fallback participates.
    if (rng.NextBernoulli(0.8)) {
      mapping->Assign(a, static_cast<alloc::ShardId>(rng.NextBounded(kShards)));
    }
  }
  return mapping;
}

// One full randomized run; returns the final global fingerprint so the
// caller can assert run-to-run reproducibility.
Sha256Digest RunRandomizedRounds(uint64_t seed) {
  StateDb db(kShards, Config());
  SerialReference reference(kFunding);
  Rng rng(seed);

  constexpr uint64_t kRounds = 400;
  constexpr size_t kInFlight = 3;  // Reservations span decisions.
  // (seq, unanimous) decisions not yet issued, FIFO like the 2PC queue.
  std::deque<std::pair<uint64_t, bool>> outstanding;
  uint64_t aborts = 0;

  auto decide_oldest = [&] {
    const auto [seq, unanimous] = outstanding.front();
    outstanding.pop_front();
    const bool commit = unanimous && !rng.NextBernoulli(0.25);
    if (commit) {
      db.Commit(seq);
      reference.Commit(seq);
    } else {
      db.Abort(seq);
      reference.Abort(seq);
      ++aborts;
    }
  };

  for (uint64_t seq = 0; seq < kRounds; ++seq) {
    const chain::Transaction tx = RandomTransaction(rng);
    const std::vector<Op> ops = BuildTransferOps(tx, seq);
    outstanding.emplace_back(seq, StageTransaction(db, reference, seq, ops));
    if (outstanding.size() > kInFlight) decide_oldest();
    if (seq % 7 == 6) {
      // Allocation install mid-stream: reservation-locked records defer.
      db.BeginMigration(RandomMapping(rng), /*hash_route_unassigned=*/true);
    }
    if (db.migration_pending()) db.ContinueMigration();
  }
  while (!outstanding.empty()) decide_oldest();
  for (int i = 0; i < 8 && db.migration_pending(); ++i) {
    db.ContinueMigration();
  }
  EXPECT_FALSE(db.migration_pending());
  EXPECT_GT(aborts, 0u) << "funding too generous: abort path not exercised";

  // Byte-identical to the serial reference, shard by shard clean.
  EXPECT_EQ(MergedRecords(db), reference.records());
  EXPECT_EQ(db.total_accounts(), reference.records().size());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(db.shard(s).pending_transactions(), 0u) << "shard " << s;
  }
  return db.GlobalRoot();
}

TEST(StatePropertyTest, RandomizedAbortRoundsMatchSerialReference) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    const Sha256Digest first = RunRandomizedRounds(seed);
    // Identical seed -> bit-identical fingerprint: the whole pipeline
    // (staging, decisions, migrations, trie upkeep) is deterministic.
    EXPECT_EQ(RunRandomizedRounds(seed), first);
  }
}

// ---------------------------------------------------------------------------
// (b) Engine end-to-end: thread count must not leak into state.

engine::EngineConfig PropertyEngineConfig(uint32_t threads) {
  engine::EngineConfig config;
  config.num_shards = kShards;
  config.num_threads = threads;
  config.work.eta = 2.0;
  config.work.capacity_per_block = 12.0;  // Multi-tick backlogs.
  config.work.cross_shard_commit_rounds = 1;
  config.hash_route_unassigned = true;
  config.state.enabled = true;
  config.state.initial_balance = kFunding;
  config.state.migration_work_per_account = 1.0;
  // Enough synthetic spin that a tick with 16 or more queued parts reaches
  // the fork-join inline threshold: the multi-lane runs fan most ticks out
  // and run the small drain ticks inline, while the 1-lane run is always
  // inline. The spin changes no logical result.
  config.spin_iterations_per_unit = 1 << 12;
  return config;
}

struct EngineOutcome {
  std::map<chain::AccountId, AccountState> records;
  Sha256Digest root{};
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t migrated = 0;
  uint64_t fanned_out_ticks = 0;
};

EngineOutcome RunEngine(uint32_t threads,
                        const std::vector<std::vector<chain::Transaction>>&
                            blocks) {
  Rng rng(99);  // Same draws per run: both engines install one mapping.
  engine::ParallelEngine engine(PropertyEngineConfig(threads),
                                RandomMapping(rng));
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_TRUE(engine.SubmitBlock(blocks[b]).ok());
    engine.Tick();
    if (b == blocks.size() / 2) {
      // Reallocation mid-run: records migrate while backlogs are live.
      EXPECT_TRUE(engine.InstallAllocation(RandomMapping(rng)).ok());
    }
  }
  engine::EngineReport report = engine.DrainAndReport();
  EngineOutcome outcome;
  outcome.records = MergedRecords(*engine.state());
  outcome.root = engine.state()->GlobalRoot();
  outcome.committed = report.sim.committed;
  outcome.aborted = report.aborted;
  outcome.migrated = report.accounts_migrated;
  outcome.fanned_out_ticks = report.fanned_out_ticks;
  return outcome;
}

TEST(StatePropertyTest, EngineStateIsIndependentOfWorkerThreads) {
  Rng rng(17);
  std::vector<std::vector<chain::Transaction>> blocks(6);
  for (auto& block : blocks) {
    for (int i = 0; i < 24; ++i) block.push_back(RandomTransaction(rng));
  }
  const EngineOutcome serial = RunEngine(1, blocks);
  EXPECT_GT(serial.aborted, 0u)
      << "funding too generous: abort path not exercised";
  EXPECT_GT(serial.migrated, 0u)
      << "install moved nothing: migration path not exercised";
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const EngineOutcome parallel = RunEngine(threads, blocks);
    EXPECT_GT(parallel.fanned_out_ticks, 0u);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_EQ(parallel.root, serial.root);
    EXPECT_EQ(parallel.committed, serial.committed);
    EXPECT_EQ(parallel.aborted, serial.aborted);
    EXPECT_EQ(parallel.migrated, serial.migrated);
  }
}

}  // namespace
}  // namespace txallo::state
