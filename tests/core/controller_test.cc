#include "txallo/core/controller.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "txallo/allocator/adapters.h"
#include "txallo/workload/ethereum_like.h"
#include "txallo/workload/scenario_registry.h"

namespace txallo::core {
namespace {

using alloc::AllocationParams;

workload::EthereumLikeConfig SmallConfig() {
  workload::EthereumLikeConfig config;
  config.num_blocks = 60;
  config.txs_per_block = 50;
  config.num_accounts = 800;
  config.num_communities = 16;
  config.seed = 7;
  return config;
}

TEST(ControllerTest, ApplyBlocksThenGlobalStep) {
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 20; ++b) controller.ApplyBlock(gen.NextBlock());
  EXPECT_EQ(controller.transactions_applied(), 20u * 50u);
  auto info = controller.StepGlobal();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(controller.allocation().Validate().ok());
  EXPECT_GT(controller.CurrentThroughput(), 0.0);
}

TEST(ControllerTest, IncrementalStateMatchesScratchAfterBlocks) {
  // The controller maintains σ/Λ̂ incrementally while blocks stream in;
  // it must agree with the from-scratch oracle at any point.
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 10; ++b) controller.ApplyBlock(gen.NextBlock());
  ASSERT_TRUE(controller.StepGlobal().ok());

  for (int b = 0; b < 10; ++b) controller.ApplyBlock(gen.NextBlock());
  // Snapshot incremental state, then recompute from scratch and compare.
  alloc::CommunityState incremental = controller.state();
  TxAlloController copy = controller;  // Cheap enough at this scale.
  copy.RecomputeState();
  for (uint32_t c = 0; c < params.num_shards; ++c) {
    EXPECT_NEAR(incremental.sigma[c], copy.state().sigma[c], 1e-6);
    EXPECT_NEAR(incremental.lambda_hat[c], copy.state().lambda_hat[c], 1e-6);
  }
}

TEST(ControllerTest, AdaptiveStepAssignsNewAccounts) {
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 30; ++b) controller.ApplyBlock(gen.NextBlock());
  ASSERT_TRUE(controller.StepGlobal().ok());

  for (int b = 0; b < 10; ++b) controller.ApplyBlock(gen.NextBlock());
  auto info = controller.StepAdaptive();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->touched_nodes, 0u);
  // Every node that appeared in any applied block must now be assigned.
  const auto& graph = controller.graph();
  const auto& allocation = controller.allocation();
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    if (graph.Strength(id) > 0.0 || graph.SelfLoop(id) > 0.0) {
      EXPECT_TRUE(allocation.IsAssigned(id)) << "node " << v;
    }
  }
}

TEST(ControllerTest, PendingTouchedNodesClearedByStep) {
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 2, 2.0);
  TxAlloController controller(&gen.registry(), params);
  controller.ApplyBlock(gen.NextBlock());
  EXPECT_FALSE(controller.PendingTouchedNodes().empty());
  ASSERT_TRUE(controller.StepAdaptive().ok());
  EXPECT_TRUE(controller.PendingTouchedNodes().empty());
}

TEST(ControllerTest, TouchedNodesAreHashOrderedAndUnique) {
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 2, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 5; ++b) controller.ApplyBlock(gen.NextBlock());
  auto touched = controller.PendingTouchedNodes();
  for (size_t i = 1; i < touched.size(); ++i) {
    const uint64_t ka = gen.registry().OrderKey(touched[i - 1]);
    const uint64_t kb = gen.registry().OrderKey(touched[i]);
    EXPECT_TRUE(ka < kb || (ka == kb && touched[i - 1] < touched[i]));
  }
}

TEST(ControllerTest, CapacityScalesWithTransactions) {
  workload::EthereumLikeGenerator gen(SmallConfig());
  AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 10; ++b) controller.ApplyBlock(gen.NextBlock());
  ASSERT_TRUE(controller.StepAdaptive().ok());
  // λ = |T|/k after the refresh.
  EXPECT_NEAR(controller.params().capacity,
              static_cast<double>(controller.transactions_applied()) / 4.0,
              1e-9);
}

TEST(ControllerTest, AdaptiveImprovesOverStaleAllocationCheaply) {
  // After drift, an adaptive step must not lose throughput, and it must be
  // far cheaper than the global step at the same ledger size.
  workload::EthereumLikeConfig config = SmallConfig();
  config.num_blocks = 100;
  workload::EthereumLikeGenerator gen(config);
  AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  TxAlloController controller(&gen.registry(), params);
  for (int b = 0; b < 50; ++b) controller.ApplyBlock(gen.NextBlock());
  ASSERT_TRUE(controller.StepGlobal().ok());
  for (int b = 0; b < 25; ++b) controller.ApplyBlock(gen.NextBlock());
  const double before = controller.CurrentThroughput();
  auto info = controller.StepAdaptive();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->final_throughput, before - 1e-6);
}

// ---------------------------------------------------------------------------
// The kept node order: whatever the controller did before, the orders its
// steps use equal a fresh (OrderKey, id) sort.

std::vector<graph::NodeId> FreshOrder(const chain::AccountRegistry& registry,
                                      std::vector<graph::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end(),
            [&registry](graph::NodeId a, graph::NodeId b) {
              const uint64_t ka = registry.OrderKey(a);
              const uint64_t kb = registry.OrderKey(b);
              return ka < kb || (ka == kb && a < b);
            });
  return nodes;
}

// Tracks V̂ independently of the controller: the distinct accounts of every
// block applied since the last step.
class OrderOracle {
 public:
  OrderOracle(const chain::AccountRegistry* registry,
              TxAlloController* controller)
      : registry_(registry), controller_(controller) {}

  void Apply(const chain::Block& block) {
    controller_->ApplyBlock(block);
    for (const chain::Transaction& tx : block.transactions()) {
      for (chain::AccountId a : tx.accounts()) {
        if (std::find(touched_.begin(), touched_.end(), a) == touched_.end()) {
          touched_.push_back(a);
        }
      }
    }
  }
  void Stepped() { touched_.clear(); }
  const std::vector<graph::NodeId>& touched() const { return touched_; }

  // V̂'s order, and (after a step) the kept order over every graph node.
  void ExpectFresh(bool after_step) const {
    EXPECT_EQ(controller_->PendingTouchedNodes(),
              FreshOrder(*registry_, touched_));
    if (!after_step) return;
    std::vector<graph::NodeId> all(controller_->graph().num_nodes());
    std::iota(all.begin(), all.end(), graph::NodeId{0});
    EXPECT_EQ(controller_->node_order(), FreshOrder(*registry_, all));
  }

 private:
  const chain::AccountRegistry* registry_;
  TxAlloController* controller_;
  std::vector<graph::NodeId> touched_;
};

class NodeOrderCacheTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NodeOrderCacheTest, StepsUseAFreshHashOrder) {
  workload::ScenarioShape shape;
  shape.num_blocks = 96;
  shape.txs_per_block = 20;
  shape.num_accounts = 3'000;
  shape.num_communities = 12;
  auto scenario = workload::MakeScenarioFromSpec(GetParam(), shape);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  workload::Scenario& source = **scenario;
  const chain::AccountRegistry& registry = source.registry();
  TxAlloController controller(&registry,
                              AllocationParams::ForExperiment(1, 4, 2.0));
  OrderOracle oracle(&registry, &controller);

  // Epochs of 1..7 blocks: a single block touches well under 1/16 of the
  // nodes (V̂ sorted), a long epoch more (V̂ filtered from the kept order).
  // Accounts born since the last step are in V̂ but not yet kept.
  uint64_t blocks = 0;
  for (int epoch = 0; blocks + 7 <= shape.num_blocks; ++epoch) {
    const int epoch_blocks = 1 + (epoch * 5) % 7;
    for (int b = 0; b < epoch_blocks; ++b, ++blocks) {
      oracle.Apply(source.NextBlock());
    }
    oracle.ExpectFresh(/*after_step=*/false);

    // Every third epoch a step runs and is rolled back, as an abandoned
    // TxAlloAllocator task does: V̂ and the orders come back unchanged.
    if (epoch % 3 == 1) {
      TxAlloController::Checkpoint checkpoint = controller.SaveCheckpoint();
      if (epoch % 2 == 0) {
        ASSERT_TRUE(controller.StepGlobal().ok());
      } else {
        ASSERT_TRUE(controller.StepAdaptive().ok());
      }
      controller.RestoreCheckpoint(std::move(checkpoint));
      oracle.ExpectFresh(/*after_step=*/false);
      oracle.Apply(source.NextBlock());
      ++blocks;
      oracle.ExpectFresh(/*after_step=*/false);
    }

    if (epoch % 4 == 0) {
      ASSERT_TRUE(controller.StepGlobal().ok());
    } else {
      ASSERT_TRUE(controller.StepAdaptive().ok());
    }
    oracle.Stepped();
    oracle.ExpectFresh(/*after_step=*/true);
  }
  EXPECT_GT(controller.node_order().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, NodeOrderCacheTest,
                         ::testing::Values("churn",
                                           "ethereum:drift-interval=16"),
                         [](const auto& param) {
                           return param.index == 0 ? std::string("Churn")
                                                   : std::string("Drift");
                         });

// An abandoned TxAlloAllocator task (stepped, then dropped uncommitted)
// leaves the strategy exactly where a run without that task is: every
// later mapping matches, which needs the kept order the step extended to
// still be the fresh one.
TEST(NodeOrderCacheTest, AbandonedTaskLeavesLaterStepsUnchanged) {
  workload::ScenarioShape shape;
  shape.num_blocks = 40;
  shape.txs_per_block = 30;
  shape.num_accounts = 2'000;
  shape.num_communities = 10;
  auto scenario = workload::MakeScenarioFromSpec("churn", shape);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const chain::Ledger ledger = (*scenario)->GenerateLedger(shape.num_blocks);
  const chain::AccountRegistry& registry = (*scenario)->registry();
  const AllocationParams params = AllocationParams::ForExperiment(1, 4, 2.0);
  allocator::TxAlloAllocator abandoned("txallo-hybrid", &registry, params,
                                       /*global_every=*/3);
  allocator::TxAlloAllocator reference("txallo-hybrid", &registry, params,
                                       /*global_every=*/3);

  const auto& blocks = ledger.blocks();
  for (size_t b = 0; b < blocks.size(); ++b) {
    abandoned.ApplyBlock(blocks[b]);
    reference.ApplyBlock(blocks[b]);
    if (b % 5 != 4) continue;
    if (b % 10 == 4) {
      // A task that steps (new accounts enter the kept order), then is
      // dropped; the next block arrives while it is outstanding.
      std::unique_ptr<allocator::RebalanceTask> task =
          abandoned.BeginRebalance();
      ASSERT_NE(task, nullptr);
      ASSERT_TRUE(task->Run().ok());
      ++b;
      ASSERT_LT(b, blocks.size());
      abandoned.ApplyBlock(blocks[b]);
      reference.ApplyBlock(blocks[b]);
      task.reset();
    }
    Result<alloc::Allocation> got = abandoned.Rebalance();
    Result<alloc::Allocation> want = reference.Rebalance();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->num_accounts(), want->num_accounts());
    for (size_t a = 0; a < want->num_accounts(); ++a) {
      const auto id = static_cast<chain::AccountId>(a);
      ASSERT_EQ(got->shard_of(id), want->shard_of(id)) << "block " << b;
    }
  }
}

}  // namespace
}  // namespace txallo::core
