// Conformance suite over the scenario registry: every name in
// RegisteredScenarioNames() must honour the Scenario contract (per-seed
// determinism, shape keys, strict option validation) and self-describe.
// Scenario-specific behavior lives in scenario_test.cc; this file is the
// part a new scenario gets for free — and cannot opt out of.
#include "txallo/workload/scenario_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "../common/declared_options_check.h"
#include "txallo/engine/replay.h"

namespace txallo::workload {
namespace {

ScenarioShape SmallShape() {
  ScenarioShape shape;
  shape.num_blocks = 12;
  shape.txs_per_block = 30;
  shape.num_accounts = 600;
  shape.num_communities = 10;
  shape.seed = 11;
  return shape;
}

TEST(ScenarioRegistryTest, EveryRegisteredNameInstantiates) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenarioFromSpec(name, SmallShape());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    EXPECT_EQ((*scenario)->spec(), name);
    EXPECT_EQ((*scenario)->num_blocks(), SmallShape().num_blocks);
    const chain::Ledger ledger =
        (*scenario)->GenerateLedger((*scenario)->num_blocks());
    EXPECT_EQ(ledger.num_blocks(), SmallShape().num_blocks);
    EXPECT_EQ(ledger.num_transactions(),
              SmallShape().num_blocks * SmallShape().txs_per_block);
    // The registry covers the whole stream (accounts pre-interned).
    EXPECT_GE((*scenario)->registry().size(), SmallShape().num_accounts);
  }
}

TEST(ScenarioRegistryTest, EveryScenarioIsDeterministicPerSeed) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto fingerprint = [&](uint64_t seed) {
      ScenarioShape shape = SmallShape();
      shape.seed = seed;
      auto scenario = MakeScenarioFromSpec(name, shape);
      EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
      return engine::FingerprintLedger(
          (*scenario)->GenerateLedger((*scenario)->num_blocks()));
    };
    EXPECT_EQ(fingerprint(3), fingerprint(3));
    EXPECT_NE(fingerprint(3), fingerprint(4))
        << "seed does not reach the stream";
  }
}

TEST(ScenarioRegistryTest, CommonShapeKeysOverrideTheProgrammaticShape) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenarioFromSpec(
        name + ":blocks=5,txs-per-block=7,accounts=300,communities=6,seed=2",
        SmallShape());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const chain::Ledger ledger = (*scenario)->GenerateLedger(5);
    EXPECT_EQ((*scenario)->num_blocks(), 5u);
    EXPECT_EQ(ledger.num_transactions(), 35u);
  }
}

TEST(ScenarioRegistryTest, UnknownNameIsNotFoundAndListsTheRegistry) {
  auto scenario = MakeScenarioFromSpec("tsunami", SmallShape());
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
  EXPECT_NE(scenario.status().message().find("ethereum"), std::string::npos);
}

TEST(ScenarioRegistryTest, UnknownKeyIsRejectedForEveryScenario) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario =
        MakeScenarioFromSpec(name + ":bogus-knob=1", SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find("bogus-knob"),
              std::string::npos);
  }
}

TEST(ScenarioRegistryTest, MalformedNumbersAreRejectedNotTruncated) {
  auto scenario = MakeScenarioFromSpec("ethereum:blocks=12banana",
                                       SmallShape());
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioRegistryTest, NegativeUnsignedValuesAreRejected) {
  // strtoull would wrap these to ~2^64: blocks=-3 used to abort in the
  // generator's allocation and accounts=-1 to run without end.
  for (const char* spec :
       {"ethereum:blocks=-3", "ethereum:accounts=-1", "ethereum:seed=-1",
        "ethereum:communities=-2", "diurnal:width=-1", "churn:pool=-5"}) {
    SCOPED_TRACE(spec);
    auto scenario = MakeScenarioFromSpec(spec, SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    const std::string value = std::string(spec).substr(
        std::string(spec).find('=') + 1);
    EXPECT_NE(scenario.status().message().find("'" + value + "'"),
              std::string::npos);
  }
}

TEST(ScenarioRegistryTest, OutOfRangeValuesFailValidation) {
  const char* bad_specs[] = {
      "ethereum:intra=1.5",        // Fraction above 1.
      "ethereum:hub-share=-0.1",   // Fraction below 0.
      "spike:peak-share=2",        // Fraction above 1.
      "spike:ramp=0",              // Ramp must cover >= 1 block.
      "diurnal:period=0",          // Period must be > 0.
      "diurnal:width=0",           // Width must be > 0.
      "churn:pool=0",              // Pool must be > 0.
      "multi-asset:assets=0",      // Need at least one asset.
      "multi-asset:asset-skew=-1", // Zipf skew must be >= 0.
      "shard-attack:shards=0",     // Shards must be > 0.
      "shard-attack:shards=4,target=4",  // Target must be < shards.
      "sybil:fanout=0",            // Fanout must be > 0.
      "stress:target=9",           // Default shards=8; target out of range.
      "ethereum:blocks=0",         // Config-level validation: empty run.
      "ethereum:accounts=1",       // Need >= 2 accounts to transact.
  };
  for (const char* spec : bad_specs) {
    SCOPED_TRACE(spec);
    auto scenario = MakeScenarioFromSpec(spec, SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ScenarioRegistryTest, MakeScenarioRendersACanonicalSpec) {
  std::map<std::string, std::string> options = {{"peak-share", "0.7"},
                                                {"start", "3"}};
  auto scenario = MakeScenario("spike", SmallShape(), options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ((*scenario)->spec(), "spike:peak-share=0.7,start=3");
}

TEST(ScenarioRegistryTest, DescriptionsCoverEveryNameAndOption) {
  const auto names = RegisteredScenarioNames();
  const auto docs = DescribeScenarios();
  ASSERT_EQ(docs.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(docs[i].name, names[i]);
    EXPECT_FALSE(docs[i].summary.empty());
    for (const common::OptionDoc& option : docs[i].options) {
      EXPECT_FALSE(option.help.empty());
      EXPECT_FALSE(option.type.empty());
    }
  }
}

TEST(ScenarioRegistryTest, DocumentedDefaultsAreAcceptedByTheFactory) {
  // The help text cannot drift from the factories: every printed bound is
  // enforced, every declared key (shape keys too) is read, and every
  // documented default constructs.
  common::ExpectDeclarationsEnforced(
      DescribeScenarios(), ScenarioShapeOptions(),
      [](const std::string& name, const common::OptionMap& options) {
        return MakeScenario(name, SmallShape(), options).status();
      });
}

TEST(ScenarioRegistryTest, DocumentedDefaultsAreTheDefaults) {
  // Spelling out every literal documented default (shape keys included)
  // generates the same stream as leaving them all out.
  for (const common::EntryDoc& doc : DescribeScenarios()) {
    const std::string name(doc.name);
    SCOPED_TRACE(name);
    auto fingerprint = [&](const common::OptionMap& options) -> uint64_t {
      auto scenario = MakeScenario(name, ScenarioShape{}, options);
      if (!scenario.ok()) {
        ADD_FAILURE() << scenario.status().ToString();
        return 0;
      }
      return engine::FingerprintLedger(
          (*scenario)->GenerateLedger((*scenario)->num_blocks()));
    };
    EXPECT_EQ(fingerprint(common::LiteralDefaults(doc.options,
                                                  ScenarioShapeOptions())),
              fingerprint({}));
  }
}

TEST(ScenarioRegistryTest, UsageTextMentionsEveryScenarioAndCommonKeys) {
  const std::string usage = ScenarioUsageText();
  for (const std::string& name : RegisteredScenarioNames()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  for (const char* key :
       {"blocks", "txs-per-block", "accounts", "communities", "seed"}) {
    EXPECT_NE(usage.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioRegistryTest, NamesAreSortedAndStable) {
  const auto names = RegisteredScenarioNames();
  ASSERT_FALSE(names.empty());
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
  // The catalog this PR ships; growing it is fine, renaming is a break.
  EXPECT_NE(std::find(names.begin(), names.end(), "ethereum"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "spike"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "shard-attack"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sybil"), names.end());
}

}  // namespace
}  // namespace txallo::workload
