#include "txallo/workload/ethereum_like.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "txallo/graph/builder.h"
#include "txallo/graph/louvain.h"
#include "txallo/graph/stats.h"

namespace txallo::workload {
namespace {

EthereumLikeConfig TestConfig() {
  EthereumLikeConfig config;
  config.num_blocks = 100;
  config.txs_per_block = 100;
  config.num_accounts = 2'000;
  config.num_communities = 40;
  config.seed = 11;
  return config;
}

TEST(EthereumLikeTest, GeneratesRequestedVolume) {
  EthereumLikeGenerator gen(TestConfig());
  chain::Ledger ledger = gen.GenerateLedger(100);
  EXPECT_EQ(ledger.num_blocks(), 100u);
  EXPECT_EQ(ledger.num_transactions(), 100u * 100u);
  EXPECT_EQ(gen.registry().size(), 2'000u);
}

TEST(EthereumLikeTest, DeterministicForSameSeed) {
  EthereumLikeGenerator a(TestConfig());
  EthereumLikeGenerator b(TestConfig());
  chain::Ledger la = a.GenerateLedger(20);
  chain::Ledger lb = b.GenerateLedger(20);
  ASSERT_EQ(la.num_transactions(), lb.num_transactions());
  auto ta = la.AllTransactions();
  auto tb = lb.AllTransactions();
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(ta[i].accounts(), tb[i].accounts()))
        << "tx " << i;
  }
}

TEST(EthereumLikeTest, DifferentSeedsDiffer) {
  EthereumLikeConfig config = TestConfig();
  EthereumLikeGenerator a(config);
  config.seed = 999;
  EthereumLikeGenerator b(config);
  auto ta = a.GenerateLedger(5).AllTransactions();
  auto tb = b.GenerateLedger(5).AllTransactions();
  int same = 0;
  for (size_t i = 0; i < ta.size(); ++i) {
    if (std::ranges::equal(ta[i].accounts(), tb[i].accounts())) ++same;
  }
  EXPECT_LT(same, static_cast<int>(ta.size()) / 2);
}

TEST(EthereumLikeTest, HubShareNearConfigured) {
  // ~11% of transactions must involve the hub (paper §VI-A).
  EthereumLikeGenerator gen(TestConfig());
  chain::Ledger ledger = gen.GenerateLedger(100);
  const chain::AccountId hub = gen.hub_account();
  uint64_t touching_hub = 0;
  ledger.ForEachTransaction([&](const chain::Transaction& tx) {
    for (chain::AccountId a : tx.accounts()) {
      if (a == hub) {
        ++touching_hub;
        break;
      }
    }
  });
  const double share = static_cast<double>(touching_hub) /
                       static_cast<double>(ledger.num_transactions());
  EXPECT_GT(share, 0.09);
  EXPECT_LT(share, 0.20);  // hub_share + incidental community-0 traffic.
}

TEST(EthereumLikeTest, LongTailActivity) {
  EthereumLikeGenerator gen(TestConfig());
  chain::Ledger ledger = gen.GenerateLedger(100);
  graph::TransactionGraph g = graph::BuildTransactionGraph(ledger);
  graph::GraphStats stats = graph::ComputeGraphStats(g);
  // Strong skew: most accounts barely transact, a few dominate.
  EXPECT_GT(stats.strength_gini, 0.5);
  EXPECT_GT(stats.low_degree_fraction, 0.3);
  EXPECT_EQ(stats.max_strength_node, gen.hub_account());
}

TEST(EthereumLikeTest, CommunityStructureIsDetectable) {
  // The intra-community bias must leave structure a community detector can
  // find: high Louvain modularity on the generated transaction graph.
  EthereumLikeConfig config = TestConfig();
  config.hub_share = 0.0;  // Isolate the community effect.
  EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(100);
  graph::TransactionGraph g = graph::BuildTransactionGraph(ledger);
  std::vector<graph::NodeId> order(g.num_nodes());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<graph::NodeId>(i);
  }
  auto louvain = graph::RunLouvain(g, order);
  EXPECT_GT(graph::Modularity(g, louvain.community), 0.5);
}

TEST(EthereumLikeTest, SelfLoopsAppearAtConfiguredRate) {
  EthereumLikeConfig config = TestConfig();
  config.self_loop_rate = 0.05;
  EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(100);
  uint64_t self_loops = 0;
  ledger.ForEachTransaction([&](const chain::Transaction& tx) {
    if (tx.IsSelfLoop()) ++self_loops;
  });
  const double rate = static_cast<double>(self_loops) /
                      static_cast<double>(ledger.num_transactions());
  EXPECT_NEAR(rate, 0.05, 0.02);
}

TEST(EthereumLikeTest, MultiPartyTransactionsAppear) {
  EthereumLikeConfig config = TestConfig();
  config.multi_party_rate = 0.2;
  EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(50);
  uint64_t multi = 0;
  uint64_t max_parties = 0;
  ledger.ForEachTransaction([&](const chain::Transaction& tx) {
    if (tx.NumDistinctAccounts() > 2) ++multi;
    max_parties = std::max<uint64_t>(max_parties, tx.NumDistinctAccounts());
  });
  EXPECT_GT(multi, 0u);
  EXPECT_LE(max_parties, config.max_parties);
}

TEST(EthereumLikeTest, LateBornAccountsOnlyAppearLater) {
  EthereumLikeConfig config = TestConfig();
  config.late_born_fraction = 0.4;
  EthereumLikeGenerator gen(config);
  chain::Ledger ledger = gen.GenerateLedger(100);
  // Accounts seen in the first 10% vs the whole run: new accounts must
  // keep appearing (A-TxAllo's fuel).
  std::vector<bool> seen_early(gen.registry().size(), false);
  std::vector<bool> seen_total(gen.registry().size(), false);
  const auto& blocks = ledger.blocks();
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (const auto& tx : blocks[b].transactions()) {
      for (chain::AccountId a : tx.accounts()) {
        if (b < 10) seen_early[a] = true;
        seen_total[a] = true;
      }
    }
  }
  size_t early = 0, total = 0;
  for (size_t a = 0; a < seen_total.size(); ++a) {
    if (seen_early[a]) ++early;
    if (seen_total[a]) ++total;
  }
  EXPECT_GT(total, early + total / 20);  // Meaningfully more accounts later.
}

TEST(EthereumLikeTest, ContractAccountsAreMarked) {
  EthereumLikeGenerator gen(TestConfig());
  EXPECT_EQ(gen.registry().TypeOf(gen.hub_account()),
            chain::AccountType::kContract);
}

TEST(EthereumLikeConfigTest, DefaultConfigValidates) {
  EXPECT_TRUE(EthereumLikeConfig{}.Validate().ok());
  EXPECT_TRUE(TestConfig().Validate().ok());
}

TEST(EthereumLikeConfigTest, StructuralZerosAreInvalidArgument) {
  auto expect_invalid = [](EthereumLikeConfig config, const char* what) {
    SCOPED_TRACE(what);
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // The message must name the offending field.
    EXPECT_NE(status.message().find(what), std::string::npos);
  };
  EthereumLikeConfig config = TestConfig();
  config.num_blocks = 0;
  expect_invalid(config, "num_blocks");
  config = TestConfig();
  config.txs_per_block = 0;
  expect_invalid(config, "txs_per_block");
  config = TestConfig();
  config.num_accounts = 1;
  expect_invalid(config, "num_accounts");
  config = TestConfig();
  config.num_communities = 0;
  expect_invalid(config, "num_communities");
  config = TestConfig();
  config.max_parties = 1;
  expect_invalid(config, "max_parties");
  config = TestConfig();
  config.initial_balance = -1;
  expect_invalid(config, "initial_balance");
}

TEST(EthereumLikeConfigTest, MoreCommunitiesThanAccountsIsInvalid) {
  EthereumLikeConfig config = TestConfig();
  config.num_accounts = 10;
  config.num_communities = 40;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EthereumLikeConfigTest, FractionsMustStayInUnitInterval) {
  auto expect_invalid = [](EthereumLikeConfig config) {
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  };
  EthereumLikeConfig config = TestConfig();
  config.p_intra_community = 1.5;
  expect_invalid(config);
  config = TestConfig();
  config.hub_share = -0.25;
  expect_invalid(config);
  config = TestConfig();
  config.self_loop_rate = 2.0;
  expect_invalid(config);
  config = TestConfig();
  config.late_born_fraction = -0.01;
  expect_invalid(config);
  config = TestConfig();
  config.drift_fraction = 1.0001;
  expect_invalid(config);
}

TEST(EthereumLikeConfigTest, SkewsMustBeNonNegative) {
  EthereumLikeConfig config = TestConfig();
  config.community_size_skew = -0.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = TestConfig();
  config.member_activity_skew = -2.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = TestConfig();
  config.hub_sender_skew = -1.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace txallo::workload
