// Engine <-> state-backend wiring: real transfers debit/credit account
// records, a failed balance check aborts the transaction through 2PC (and
// demonstrably reverts its staged effects), allocation installs migrate
// records and charge the move count, and each tick fingerprints committed
// state into the trace.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/engine/engine.h"
#include "txallo/state/state_db.h"
#include "txallo/state/transfer_plan.h"

namespace txallo::engine {
namespace {

std::shared_ptr<alloc::Allocation> MakeAllocation(
    size_t accounts, uint32_t shards,
    const std::vector<alloc::ShardId>& assignment) {
  auto a = std::make_shared<alloc::Allocation>(accounts, shards);
  for (size_t i = 0; i < assignment.size(); ++i) {
    a->Assign(static_cast<chain::AccountId>(i), assignment[i]);
  }
  return a;
}

EngineConfig StateConfigured(uint32_t shards, uint32_t threads,
                             int64_t funding) {
  EngineConfig config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.work.eta = 2.0;
  config.work.capacity_per_block = 100.0;
  config.work.cross_shard_commit_rounds = 1;
  config.state.enabled = true;
  config.state.initial_balance = funding;
  config.state.migration_work_per_account = 1.0;
  return config;
}

// Hand-verifiable scenario (funding = 1): the ingest sequence tags fix the
// transfer amounts (TransferAmount(seq) = 1 + seq % 7), so
//   tx0 = {0 -> 1} at seq 0 moves 1 unit: within the balance, commits;
//   tx1 = {2 -> 3} at seq 1 moves 2 units: overdraws, aborts.
// Both are cross-shard under the 0,2->shard0 / 1,3->shard1 mapping, so the
// abort exercises the multi-participant vote path.
TEST(EngineStateTest, InsufficientBalanceAbortsAndRevertsThroughTwoPhase) {
  ASSERT_EQ(state::TransferAmount(0), 1);
  ASSERT_EQ(state::TransferAmount(1), 2);
  auto alloc = MakeAllocation(4, 2, {0, 1, 0, 1});
  ParallelEngine engine(StateConfigured(2, 2, /*funding=*/1), alloc);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1),
                                      chain::Transaction::Simple(2, 3)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();

  EXPECT_EQ(report.sim.submitted, 2u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 2u);
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.aborted, 1u);
  EXPECT_EQ(report.cross_shard_aborted, 1u);

  state::StateDb* db = engine.state();
  ASSERT_NE(db, nullptr);
  // tx0 committed: payer drained, payee credited, payer nonce bumped.
  EXPECT_EQ(*db->Find(0), (state::AccountState{0, 1}));
  EXPECT_EQ(*db->Find(1), (state::AccountState{2, 0}));
  // tx1 aborted: both records reverted to the freshly-funded state (lazy
  // creation is a committed-state change and survives the abort).
  EXPECT_EQ(*db->Find(2), (state::AccountState{1, 0}));
  EXPECT_EQ(*db->Find(3), (state::AccountState{1, 0}));
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(db->shard(s).pending_transactions(), 0u) << "shard " << s;
  }

  // Structural check: the engine's fingerprint equals a StateDb built by
  // hand with exactly the expected records on the expected shards.
  state::StateDb expected(2, engine.config().state);
  expected.Fund(0, {0, 1}, 0);
  expected.Fund(2, {1, 0}, 0);
  expected.Fund(1, {2, 0}, 1);
  expected.Fund(3, {1, 0}, 1);
  EXPECT_EQ(db->GlobalRoot(), expected.GlobalRoot());
}

TEST(EngineStateTest, InstallMigratesRecordsAndChargesTheMoveCount) {
  auto alloc = MakeAllocation(4, 2, {0, 1, 0, 1});
  ParallelEngine engine(StateConfigured(2, 2, /*funding=*/100), alloc);
  // One committed block lazily creates all four records in place.
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1),
                                      chain::Transaction::Simple(2, 3)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport before = engine.DrainAndReport();
  EXPECT_EQ(before.sim.committed, 2u);
  EXPECT_EQ(before.accounts_migrated, 0u);

  // Swap every account's shard; the install's real cost is 4 record moves.
  ASSERT_TRUE(
      engine.InstallAllocation(MakeAllocation(4, 2, {1, 0, 1, 0})).ok());
  engine.Tick();
  EngineReport after = engine.Snapshot();
  EXPECT_EQ(after.reallocations, 1u);
  EXPECT_EQ(after.accounts_migrated, 4u);
  state::StateDb* db = engine.state();
  EXPECT_EQ(db->ResidencyOf(0), 1u);
  EXPECT_EQ(db->ResidencyOf(1), 0u);
  EXPECT_EQ(db->ResidencyOf(2), 1u);
  EXPECT_EQ(db->ResidencyOf(3), 0u);
  // Records arrive intact: balances unchanged by the move.
  EXPECT_EQ(db->Find(0)->balance, 100 - 1);
  EXPECT_EQ(db->Find(1)->balance, 100 + 1);
}

TEST(EngineStateTest, TraceRecordsOneStateRootPerTick) {
  auto alloc = MakeAllocation(4, 2, {0, 1, 0, 1});
  ParallelEngine engine(StateConfigured(2, 1, /*funding=*/100), alloc);
  engine.EnableTraceRecording();
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  engine.DrainAndReport();

  ParallelEngine::Trace trace = engine.ExtractTrace();
  ASSERT_GE(trace.state_roots.size(), 2u);
  for (size_t i = 1; i < trace.state_roots.size(); ++i) {
    EXPECT_LT(trace.state_roots[i - 1].block, trace.state_roots[i].block);
  }
  // The last per-tick root is the live fingerprint.
  EXPECT_EQ(trace.state_roots.back().root, engine.state()->GlobalRoot());
  // State changed between the ticks, and the roots show it.
  EXPECT_NE(trace.state_roots.front().root, trace.state_roots.back().root);
}

// One routing rule for ingest and migration (Allocation::RouteOf): an
// account born after the snapshot executes on account % k, its record stays
// there while installs leave it unplaced, and moves once one places it.
TEST(EngineStateTest, UnplacedAccountLivesOnItsHashShardUntilAssigned) {
  EngineConfig config = StateConfigured(4, 2, /*funding=*/100);
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, MakeAllocation(4, 4, {0, 0, 0, 0}));
  engine.EnableTraceRecording();
  // Account 9 is outside the snapshot's domain: 9 % 4 == 1.
  ASSERT_TRUE(engine.SubmitBlock({chain::Transaction::Simple(0, 9)}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 1u);
  const ParallelEngine::Trace trace = engine.ExtractTrace();
  ASSERT_EQ(trace.prepares.size(), 2u);
  EXPECT_EQ(trace.prepares[0].shard, 0u);
  EXPECT_EQ(trace.prepares[1].shard, 1u);
  state::StateDb* db = engine.state();
  EXPECT_EQ(db->ResidencyOf(9), 1u);
  EXPECT_EQ(db->Find(9)->balance, 100 + 1);

  // A wider mapping that still leaves account 9 unplaced moves nothing.
  ASSERT_TRUE(engine.InstallAllocation(MakeAllocation(10, 4, {0, 0, 0, 0}))
                  .ok());
  engine.Tick();
  EXPECT_EQ(engine.Snapshot().accounts_migrated, 0u);
  EXPECT_EQ(db->ResidencyOf(9), 1u);

  // Once a mapping places it, the record migrates to the assigned shard.
  auto placed = MakeAllocation(10, 4, {0, 0, 0, 0});
  placed->Assign(9, 3);
  ASSERT_TRUE(engine.InstallAllocation(placed).ok());
  engine.Tick();
  EXPECT_EQ(engine.Snapshot().accounts_migrated, 1u);
  EXPECT_EQ(db->ResidencyOf(9), 3u);
  EXPECT_EQ(db->Find(9)->balance, 100 + 1);
}

// With the backend off the engine is the pure cost model: no aborts, no
// migration charge, no roots, and no StateDb at all.
TEST(EngineStateTest, DisabledBackendKeepsThePureCostModel) {
  auto alloc = MakeAllocation(4, 2, {0, 1, 0, 1});
  EngineConfig config = StateConfigured(2, 1, /*funding=*/1);
  config.state.enabled = false;
  ParallelEngine engine(config, alloc);
  engine.EnableTraceRecording();
  EXPECT_EQ(engine.state(), nullptr);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(2, 3)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);  // Would abort with state on.
  EXPECT_EQ(report.aborted, 0u);
  EXPECT_EQ(report.accounts_migrated, 0u);
  EXPECT_TRUE(engine.ExtractTrace().state_roots.empty());
}

}  // namespace
}  // namespace txallo::engine
