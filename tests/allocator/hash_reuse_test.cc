// allocator::HashStrategy keeps the mapping its last committed rebalance
// produced and hands it out again while the registry and the seen domain
// stand still. Under interleaved domain growth, registry growth, abandoned
// tasks and Run() on a background thread, every mapping it returns must
// equal a fresh hash of the registry size and domain width in force when
// the mapping was asked for — a task begun before a growth still returns
// the pre-growth mapping. Labelled `allocators engine`: the TSan preset
// runs it, racing the kept mapping's hand-off to the worker. The
// ClosureRebalanceTask contract every strategy's task rests on (the run's
// status reaches the commit, an error when the task is abandoned) is
// pinned here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "txallo/alloc/params.h"
#include "txallo/allocator/registry.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/chain/account.h"
#include "txallo/chain/block.h"
#include "txallo/common/rng.h"
#include "txallo/engine/background_allocator.h"

namespace txallo::allocator {
namespace {

constexpr uint32_t kShards = 8;

// The hash placement from the baselines: the registry's address hash for
// the first `known` ids, the id hash for the rest of the domain.
alloc::Allocation FreshHash(const chain::AccountRegistry& registry,
                            size_t known, size_t domain) {
  const alloc::Allocation by_address =
      baselines::AllocateByHash(registry, kShards);
  const alloc::Allocation by_id = baselines::AllocateByHash(domain, kShards);
  alloc::Allocation expected(domain, kShards);
  for (size_t a = 0; a < domain; ++a) {
    const auto id = static_cast<chain::AccountId>(a);
    expected.Assign(id, a < known ? by_address.shard_of(id)
                                  : by_id.shard_of(id));
  }
  return expected;
}

// Drives one HashStrategy and tracks the domain it should cover.
class Harness {
 public:
  explicit Harness(size_t accounts) {
    EXPECT_TRUE(registry_.CreateSynthetic(accounts).ok());
    AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(1, kShards, 2.0);
    options.registry = &registry_;
    Result<std::unique_ptr<Allocator>> made = MakeAllocator("hash", options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    allocator_ = std::move(made.value());
    online_ = allocator_->AsOnline();
  }

  OnlineAllocator& online() { return *online_; }
  const chain::AccountRegistry& registry() const { return registry_; }

  size_t domain() const { return std::max(registry_.size(), seen_); }

  // What a mapping asked for now must be.
  alloc::Allocation Expected() const {
    return FreshHash(registry_, registry_.size(), domain());
  }

  // A block whose widest account is `widest`.
  void Touch(chain::AccountId widest) {
    online_->ApplyBlock(
        chain::Block(blocks_++, {chain::Transaction::Simple(0, widest)}));
    seen_ = std::max<size_t>(seen_, static_cast<size_t>(widest) + 1);
  }

  void GrowRegistry(size_t accounts) {
    EXPECT_TRUE(registry_.CreateSynthetic(accounts).ok());
  }

 private:
  chain::AccountRegistry registry_;
  std::unique_ptr<Allocator> allocator_;
  OnlineAllocator* online_ = nullptr;
  size_t seen_ = 0;
  uint64_t blocks_ = 0;
};

TEST(HashReuseTest, MappingsMatchAFreshHashUnderInterleavedGrowth) {
  Harness harness(300);
  engine::BackgroundAllocator worker;
  Rng rng(42);
  // The mapping the task running on the worker must return.
  alloc::Allocation in_flight_expected;
  uint64_t checked = 0, back_to_back = 0, abandoned = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t action = rng.NextBounded(8);
    if (action == 0) {
      // Domain growth (or not: ids inside the domain change nothing), also
      // while a Run() is in flight.
      harness.Touch(static_cast<chain::AccountId>(
          harness.domain() - 2 + rng.NextBounded(6)));
    } else if (action == 1) {
      EXPECT_EQ(harness.online().CurrentAllocation(), harness.Expected())
          << "step " << step;
      ++checked;
    } else if (worker.busy()) {
      // One task at a time: the one in flight is collected, and committed
      // or abandoned after its Run().
      Result<engine::BackgroundAllocator::Outcome> outcome = worker.Collect();
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(outcome->mapping.ok());
      EXPECT_EQ(*outcome->mapping, in_flight_expected) << "step " << step;
      ++checked;
      if (action % 2 == 0) {
        ASSERT_TRUE(outcome->task->Commit().ok());
      } else {
        ++abandoned;
      }
    } else if (action == 2) {
      // Registry growth, sometimes inside the seen domain (same width, more
      // address-hashed ids), only while no Run() reads the registry.
      harness.GrowRegistry(1 + rng.NextBounded(4));
    } else if (action == 3) {
      in_flight_expected = harness.Expected();
      ASSERT_TRUE(worker.Launch(harness.online().BeginRebalance()).ok());
    } else if (action == 4) {
      // Abandoned before or after its Run(), never committed.
      std::unique_ptr<RebalanceTask> task = harness.online().BeginRebalance();
      if (rng.NextBounded(2) == 0) {
        Result<alloc::Allocation> mapping = task->Run();
        ASSERT_TRUE(mapping.ok());
        EXPECT_EQ(*mapping, harness.Expected()) << "step " << step;
        ++checked;
      }
      ++abandoned;
    } else if (action == 5) {
      // Synchronous rebalances back to back: the second one has nothing
      // new to hash.
      for (int i = 0; i < 2; ++i) {
        Result<alloc::Allocation> mapping = harness.online().Rebalance();
        ASSERT_TRUE(mapping.ok());
        EXPECT_EQ(*mapping, harness.Expected()) << "step " << step;
      }
      checked += 2;
      ++back_to_back;
    } else {
      // Begun before a growth of both kinds: Run() on the worker returns
      // the pre-growth mapping, and the next task sees the growth.
      const alloc::Allocation before = harness.Expected();
      std::unique_ptr<RebalanceTask> task = harness.online().BeginRebalance();
      harness.GrowRegistry(2);
      harness.Touch(static_cast<chain::AccountId>(harness.domain() + 3));
      ASSERT_TRUE(worker.Launch(std::move(task)).ok());
      Result<engine::BackgroundAllocator::Outcome> outcome = worker.Collect();
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(outcome->mapping.ok());
      EXPECT_EQ(*outcome->mapping, before) << "step " << step;
      ASSERT_TRUE(outcome->task->Commit().ok());
      Result<alloc::Allocation> after = harness.online().Rebalance();
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*after, harness.Expected()) << "step " << step;
      EXPECT_NE(*after, before);
      checked += 2;
    }
  }
  if (worker.busy()) {
    Result<engine::BackgroundAllocator::Outcome> outcome = worker.Collect();
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->mapping.ok());
    EXPECT_EQ(*outcome->mapping, in_flight_expected);
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(back_to_back, 10u);
  EXPECT_GT(abandoned, 10u);
  EXPECT_GT(harness.registry().size(), 330u);
}

TEST(HashReuseTest, RegistryGrowthInsideTheSeenDomainIsNotReused) {
  // The domain width stays put while registry-known ids replace
  // id-hashed ones: the kept mapping must not be handed out again.
  Harness harness(100);
  harness.Touch(149);
  ASSERT_EQ(harness.domain(), 150u);
  Result<alloc::Allocation> first = harness.online().Rebalance();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, harness.Expected());
  harness.GrowRegistry(30);
  ASSERT_EQ(harness.domain(), 150u);
  Result<alloc::Allocation> second = harness.online().Rebalance();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, harness.Expected());
  EXPECT_EQ(harness.online().CurrentAllocation(), harness.Expected());
  EXPECT_NE(*second, *first);
}

TEST(HashReuseTest, TaskCommittedAfterAGrowthKeepsItsOwnDomain) {
  // A task begun before a growth and committed after it returns, and
  // keeps, the pre-growth mapping; it must not then stand in for the grown
  // domain.
  Harness harness(200);
  harness.Touch(249);  // Ids 200..249 are id-hashed until the registry grows.
  const alloc::Allocation before = harness.Expected();
  std::unique_ptr<RebalanceTask> task = harness.online().BeginRebalance();
  harness.GrowRegistry(5);
  harness.Touch(260);
  Result<alloc::Allocation> mapping = task->Run();
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(*mapping, before);
  ASSERT_TRUE(task->Commit().ok());
  EXPECT_EQ(harness.online().CurrentAllocation(), harness.Expected());
  Result<alloc::Allocation> next = harness.online().Rebalance();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, harness.Expected());
  EXPECT_NE(*next, before);
}

// Runs `task` on the worker thread and returns its mapping; the task comes
// back through `*collected` uncommitted.
alloc::Allocation RunOnWorker(engine::BackgroundAllocator& worker,
                              std::unique_ptr<RebalanceTask> task,
                              std::unique_ptr<RebalanceTask>* collected) {
  EXPECT_TRUE(worker.Launch(std::move(task)).ok());
  Result<engine::BackgroundAllocator::Outcome> outcome = worker.Collect();
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->mapping.ok());
  *collected = std::move(outcome->task);
  return std::move(*outcome->mapping);
}

TEST(HashReuseTest, UnchangedAndRecomputePathsHandOutAFreshHash) {
  // Each growth makes the next task recompute into the slot it shares with
  // its commit; the task after it hands out the kept mapping unchanged.
  // Both run on the worker, so TSan sees the slot's hand-off.
  Harness harness(200);
  engine::BackgroundAllocator worker;
  for (int growth = 0; growth < 3; ++growth) {
    harness.Touch(static_cast<chain::AccountId>(harness.domain() + 40));
    harness.GrowRegistry(10);
    for (const char* path : {"recompute", "unchanged"}) {
      std::unique_ptr<RebalanceTask> task;
      const alloc::Allocation mapping =
          RunOnWorker(worker, harness.online().BeginRebalance(), &task);
      EXPECT_EQ(mapping, harness.Expected()) << path << ", growth " << growth;
      ASSERT_TRUE(task->Commit().ok());
      EXPECT_EQ(harness.online().CurrentAllocation(), harness.Expected())
          << path << ", growth " << growth;
    }
  }
  // A recompute abandoned after its Run() keeps nothing: the next task
  // recomputes and still hands out the fresh hash.
  harness.Touch(static_cast<chain::AccountId>(harness.domain() + 40));
  {
    std::unique_ptr<RebalanceTask> abandoned;
    EXPECT_EQ(RunOnWorker(worker, harness.online().BeginRebalance(),
                          &abandoned),
              harness.Expected());
  }
  Result<alloc::Allocation> next = harness.online().Rebalance();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, harness.Expected());
}

TEST(HashReuseTest, AbandonedTaskReachesItsCommitWithAnError) {
  // Every strategy's task is a ClosureRebalanceTask: its commit closure
  // sees the run's status, and an error when the task is dropped
  // uncommitted, before or after its Run() (here on the worker thread).
  std::vector<Status> seen;
  auto make = [&seen](bool fail) {
    return std::make_unique<ClosureRebalanceTask>(
        [fail]() -> Result<alloc::Allocation> {
          if (fail) return Status::Internal("run failed");
          return alloc::Allocation(3, kShards);
        },
        [&seen](const Status& status) {
          seen.push_back(status);
          return status;
        });
  };
  engine::BackgroundAllocator worker;
  { auto never_run = make(false); }
  {
    std::unique_ptr<RebalanceTask> ran;
    EXPECT_EQ(RunOnWorker(worker, make(false), &ran),
              alloc::Allocation(3, kShards));
  }
  {
    auto committed = make(false);
    ASSERT_TRUE(committed->Run().ok());
    EXPECT_TRUE(committed->Commit().ok());
  }
  {
    auto failed = make(true);
    EXPECT_FALSE(failed->Run().ok());
    EXPECT_EQ(failed->Commit().code(), StatusCode::kInternal);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(seen[1].code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(seen[2].ok());
  EXPECT_EQ(seen[3].code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace txallo::allocator
