// Parameterized conformance suite: every strategy in RegisteredNames() must
// (a) produce a valid, complete mapping over the fixture's account domain
// with every shard id < k, (b) be deterministic — two independent
// instances and two calls on one instance all yield the identical mapping
// (paper §V-B: all miners must agree without a consensus round), and
// (c) honor the same contract on the online Rebalance path, where one
// Rebalance() over a ledger equals Allocate() over its graph. A strategy
// added to the registry is conformance-tested with zero new test code.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "txallo/allocator/registry.h"
#include "txallo/graph/builder.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::allocator {
namespace {

constexpr uint32_t kShards = 4;
constexpr double kEta = 2.0;

struct Workload {
  std::unique_ptr<workload::EthereumLikeGenerator> generator;
  chain::Ledger ledger;
  graph::TransactionGraph graph;
  std::vector<graph::NodeId> node_order;
};

const Workload& SharedWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    workload::EthereumLikeConfig config;
    config.num_accounts = 600;
    config.txs_per_block = 40;
    config.num_blocks = 25;
    config.num_communities = 12;
    config.seed = 7;
    w->generator = std::make_unique<workload::EthereumLikeGenerator>(config);
    w->ledger = w->generator->GenerateLedger(config.num_blocks);
    w->graph = graph::BuildTransactionGraph(w->ledger);
    w->graph.EnsureNodeCount(w->generator->registry().size());
    w->graph.Consolidate();
    w->node_order = w->generator->registry().IdsInHashOrder();
    return w;
  }();
  return *workload;
}

AllocatorOptions OptionsForWorkload(const Workload& w) {
  AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      w.ledger.num_transactions(), kShards, kEta);
  options.registry = &w.generator->registry();
  options.seed = 7;
  return options;
}

AllocationContext ContextForWorkload(const Workload& w,
                                     const AllocatorOptions& options) {
  AllocationContext context;
  context.graph = &w.graph;
  context.ledger = &w.ledger;
  context.registry = &w.generator->registry();
  context.node_order = &w.node_order;
  context.params = options.params;
  return context;
}

class AllocatorConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(AllocatorConformance, OneShotCoversDomainWithValidShards) {
  const Workload& w = SharedWorkload();
  const AllocatorOptions options = OptionsForWorkload(w);
  auto made = MakeAllocator(GetParam(), options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto allocation = (*made)->Allocate(ContextForWorkload(w, options));
  ASSERT_TRUE(allocation.ok()) << allocation.status().ToString();
  EXPECT_EQ(allocation->num_shards(), kShards);
  EXPECT_GE(allocation->num_accounts(), w.generator->registry().size());
  // Completeness + range (Definition 1) over the whole domain...
  EXPECT_TRUE(allocation->Validate().ok())
      << allocation->Validate().ToString();
  // ...and the raw ids once more, so a Validate() regression cannot mask a
  // strategy handing out shard ids >= k.
  for (alloc::ShardId shard : allocation->raw()) {
    ASSERT_LT(shard, kShards);
  }
}

TEST_P(AllocatorConformance, OneShotIsDeterministic) {
  const Workload& w = SharedWorkload();
  const AllocatorOptions options = OptionsForWorkload(w);
  const AllocationContext context = ContextForWorkload(w, options);
  auto first = MakeAllocator(GetParam(), options);
  auto second = MakeAllocator(GetParam(), options);
  ASSERT_TRUE(first.ok() && second.ok());
  auto a1 = (*first)->Allocate(context);
  auto a2 = (*second)->Allocate(context);
  auto a1_again = (*first)->Allocate(context);
  ASSERT_TRUE(a1.ok() && a2.ok() && a1_again.ok());
  EXPECT_TRUE(*a1 == *a2) << "two instances disagreed";
  EXPECT_TRUE(*a1 == *a1_again) << "repeat call on one instance disagreed";
}

TEST_P(AllocatorConformance, OnlineRebalanceMatchesContract) {
  const Workload& w = SharedWorkload();
  const AllocatorOptions options = OptionsForWorkload(w);
  auto first = MakeAllocator(GetParam(), options);
  auto second = MakeAllocator(GetParam(), options);
  ASSERT_TRUE(first.ok() && second.ok());
  OnlineAllocator* online1 = (*first)->AsOnline();
  OnlineAllocator* online2 = (*second)->AsOnline();
  if (online1 == nullptr) {
    GTEST_SKIP() << GetParam() << " is one-shot only";
  }
  ASSERT_NE(online2, nullptr);
  for (const chain::Block& block : w.ledger.blocks()) {
    online1->ApplyBlock(block);
    online2->ApplyBlock(block);
  }
  auto r1 = online1->Rebalance();
  auto r2 = online2->Rebalance();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->num_shards(), kShards);
  EXPECT_TRUE(r1->Validate().ok()) << r1->Validate().ToString();
  EXPECT_TRUE(*r1 == *r2) << "online path not deterministic";
  // CurrentAllocation reflects the rebalanced mapping.
  EXPECT_TRUE(online1->CurrentAllocation() == *r1);
}

TEST_P(AllocatorConformance, OnlineRebalanceEqualsOneShotAllocate) {
  // The online path is the one-shot method over the graph it accumulated:
  // one Rebalance() after the whole ledger equals Allocate() over that
  // ledger's graph. The graph is built without domain padding (the online
  // graph holds only accounts seen in a transaction), and both sides
  // consolidate once, so edge weights sum in the same order.
  for (const uint64_t seed : {5, 7, 11, 42}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    workload::EthereumLikeConfig config;
    config.num_accounts = 600;
    config.txs_per_block = 40;
    config.num_blocks = 25;
    config.num_communities = 12;
    config.seed = seed;
    workload::EthereumLikeGenerator generator(config);
    const chain::Ledger ledger = generator.GenerateLedger(config.num_blocks);
    const graph::TransactionGraph graph = graph::BuildTransactionGraph(ledger);

    AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), kShards, kEta);
    options.registry = &generator.registry();
    auto online_made = MakeAllocator(GetParam(), options);
    auto oneshot_made = MakeAllocator(GetParam(), options);
    ASSERT_TRUE(online_made.ok() && oneshot_made.ok());
    OnlineAllocator* online = (*online_made)->AsOnline();
    if (online == nullptr) {
      GTEST_SKIP() << GetParam() << " is one-shot only";
    }
    for (const chain::Block& block : ledger.blocks()) {
      online->ApplyBlock(block);
    }
    Result<alloc::Allocation> rebalanced = online->Rebalance();
    ASSERT_TRUE(rebalanced.ok()) << rebalanced.status().ToString();

    AllocationContext context;
    context.graph = &graph;
    context.ledger = &ledger;
    context.registry = &generator.registry();
    context.params = options.params;
    Result<alloc::Allocation> allocated = (*oneshot_made)->Allocate(context);
    ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
    EXPECT_TRUE(*rebalanced == *allocated)
        << "online Rebalance() and one-shot Allocate() disagree";
  }
}

TEST_P(AllocatorConformance, BeginRebalanceSplitIsSupportedAndEquivalent) {
  // Snapshot isolation of the one rebalance path, which the engine's
  // background allocator relies on to rebalance concurrently. Rebalance()
  // runs the same task in place, so the reference instance below sees no
  // concurrent blocks:
  // (a) BeginRebalance() is supported (non-null task);
  // (b) blocks absorbed between the snapshot and Commit() do not leak into
  //     the task's mapping;
  // (c) after Commit(), those blocks are not lost either: the allocator
  //     continues exactly like the reference (the NEXT rebalance agrees).
  const Workload& w = SharedWorkload();
  const AllocatorOptions options = OptionsForWorkload(w);
  auto split = MakeAllocator(GetParam(), options);
  auto sync = MakeAllocator(GetParam(), options);
  ASSERT_TRUE(split.ok() && sync.ok());
  OnlineAllocator* online_split = (*split)->AsOnline();
  OnlineAllocator* online_sync = (*sync)->AsOnline();
  if (online_split == nullptr) {
    GTEST_SKIP() << GetParam() << " is one-shot only";
  }
  ASSERT_NE(online_sync, nullptr);

  const auto& blocks = w.ledger.blocks();
  const size_t half = blocks.size() / 2;
  for (size_t b = 0; b < half; ++b) {
    online_split->ApplyBlock(blocks[b]);
    online_sync->ApplyBlock(blocks[b]);
  }
  // (a) the split path snapshots here...
  std::unique_ptr<RebalanceTask> task = online_split->BeginRebalance();
  ASSERT_NE(task, nullptr)
      << GetParam() << " must support the snapshot/accumulate split";
  // ...while the rest of the ledger keeps streaming into the allocator.
  for (size_t b = half; b < blocks.size(); ++b) {
    online_split->ApplyBlock(blocks[b]);
  }
  Result<alloc::Allocation> task_mapping = task->Run();
  ASSERT_TRUE(task_mapping.ok()) << task_mapping.status().ToString();
  ASSERT_TRUE(task->Commit().ok());
  // (b) the reference rebalanced at the same point...
  Result<alloc::Allocation> sync_mapping = online_sync->Rebalance();
  ASSERT_TRUE(sync_mapping.ok()) << sync_mapping.status().ToString();
  EXPECT_TRUE(*task_mapping == *sync_mapping)
      << "blocks absorbed after BeginRebalance() leaked into the task";
  // ...and absorbs the same tail afterwards.
  for (size_t b = half; b < blocks.size(); ++b) {
    online_sync->ApplyBlock(blocks[b]);
  }
  // (c) both instances continue identically.
  Result<alloc::Allocation> next_split = online_split->Rebalance();
  Result<alloc::Allocation> next_sync = online_sync->Rebalance();
  ASSERT_TRUE(next_split.ok() && next_sync.ok());
  EXPECT_TRUE(*next_split == *next_sync)
      << "state after Commit() diverged from the reference";
}

TEST_P(AllocatorConformance, BeginRebalanceTaskMatchesCurrentAllocation) {
  // After Commit(), CurrentAllocation() must reflect the task's mapping
  // (the same promise Rebalance() makes).
  const Workload& w = SharedWorkload();
  const AllocatorOptions options = OptionsForWorkload(w);
  auto made = MakeAllocator(GetParam(), options);
  ASSERT_TRUE(made.ok());
  OnlineAllocator* online = (*made)->AsOnline();
  if (online == nullptr) {
    GTEST_SKIP() << GetParam() << " is one-shot only";
  }
  for (const chain::Block& block : w.ledger.blocks()) {
    online->ApplyBlock(block);
  }
  std::unique_ptr<RebalanceTask> task = online->BeginRebalance();
  ASSERT_NE(task, nullptr);
  Result<alloc::Allocation> mapping = task->Run();
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  ASSERT_TRUE(task->Commit().ok());
  EXPECT_TRUE(online->CurrentAllocation() == *mapping);
}

std::string SanitizeName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllocatorConformance,
                         ::testing::ValuesIn(RegisteredNames()),
                         SanitizeName);

}  // namespace
}  // namespace txallo::allocator
