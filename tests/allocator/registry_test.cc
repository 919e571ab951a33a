// Unit tests for the allocator registry: unknown names, unknown keys,
// malformed and out-of-range values must all fail loudly, and every
// registered name must construct and describe itself. The edge cases of
// the spec grammar itself are tested in tests/common/spec_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "../common/declared_options_check.h"
#include "txallo/allocator/adapters.h"
#include "txallo/allocator/registry.h"

namespace txallo::allocator {
namespace {

AllocatorOptions BaseOptions(const chain::AccountRegistry* registry = nullptr) {
  AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(1'000, 4, 2.0);
  options.registry = registry;
  return options;
}

// Allocator specs go through the shared common::ParseSpec grammar.
TEST(ParseAllocatorSpecTest, NameOnly) {
  auto spec = common::ParseSpec("metis");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "metis");
  EXPECT_TRUE(spec->options.empty());
}

TEST(ParseAllocatorSpecTest, NameWithOptions) {
  auto spec = common::ParseSpec("txallo-hybrid:global-every=4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "txallo-hybrid");
  EXPECT_EQ(spec->options.at("global-every"), "4");
}

TEST(ParseAllocatorSpecTest, RejectsEmptyName) {
  EXPECT_FALSE(common::ParseSpec("").ok());
  EXPECT_FALSE(common::ParseSpec(":a=1").ok());
  EXPECT_FALSE(MakeAllocatorFromSpec(":global-every=4", BaseOptions()).ok());
}

TEST(RegistryTest, RegisteredNamesSortedUniqueAndComplete) {
  const std::vector<std::string> names = RegisteredNames();
  EXPECT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  for (const char* expected :
       {"broker", "hash", "louvain", "metis", "shard-scheduler",
        "txallo-global", "txallo-hybrid"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing allocator: " << expected;
  }
}

TEST(RegistryTest, EveryNameConstructsAndDescribes) {
  chain::AccountRegistry registry;
  registry.Intern("0xa");
  for (const common::EntryDoc& doc : DescribeAllocators()) {
    const std::string name(doc.name);
    auto made = MakeAllocator(name, BaseOptions(&registry));
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().ToString();
    EXPECT_EQ((*made)->Name(), name);
    EXPECT_FALSE(doc.summary.empty()) << name;
  }
}

TEST(RegistryTest, UnknownNameListsRegisteredOnes) {
  auto made = MakeAllocator("nope", BaseOptions());
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
  EXPECT_NE(made.status().message().find("metis"), std::string::npos);
}

TEST(RegistryTest, UnknownOptionKeyIsRejected) {
  AllocatorOptions options = BaseOptions();
  options.extra["typo"] = "1";
  auto made = MakeAllocator("metis", options);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(made.status().message().find("typo"), std::string::npos);
}

TEST(RegistryTest, MalformedOptionValueIsRejected) {
  chain::AccountRegistry registry;
  auto made = MakeAllocatorFromSpec("txallo-hybrid:global-every=abc",
                                    BaseOptions(&registry));
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(made.status().message().find("global-every"), std::string::npos);
}

TEST(RegistryTest, NegativeUnsignedOptionValueIsRejected) {
  chain::AccountRegistry registry;
  for (const char* spec :
       {"txallo-hybrid:global-every=-1", "broker:brokers=-8"}) {
    SCOPED_TRACE(spec);
    auto made = MakeAllocatorFromSpec(spec, BaseOptions(&registry));
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(made.status().message().find("'-"), std::string::npos);
  }
}

TEST(RegistryTest, NonFiniteOptionValueIsRejected) {
  // "nan" used to pass both the reader and the broker's `cost < 0` check
  // and evaluate every shard's workload to nan.
  for (const char* spec : {"broker:cross-cost=nan", "metis:imbalance=inf"}) {
    SCOPED_TRACE(spec);
    auto made = MakeAllocatorFromSpec(spec, BaseOptions());
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RegistryTest, OutOfRangeOptionValueIsRejected) {
  // broker:cross-cost=-1 used to construct and fail only in Evaluate(),
  // which the engine-facing benches never call.
  const std::pair<const char*, const char*> cases[] = {
      {"metis:imbalance=0.5", "'imbalance'"},
      {"louvain:resolution=0", "'resolution'"},
      {"broker:cross-cost=-1", "'cross-cost'"},
  };
  for (const auto& [spec, key] : cases) {
    SCOPED_TRACE(spec);
    auto made = MakeAllocatorFromSpec(spec, BaseOptions());
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(made.status().message().find(key), std::string::npos)
        << made.status().ToString();
  }
}

TEST(RegistryTest, TxAlloNamesRequireRegistry) {
  auto made = MakeAllocator("txallo-global", BaseOptions(nullptr));
  ASSERT_FALSE(made.ok());
  EXPECT_NE(made.status().message().find("registry"), std::string::npos);
}

// k = 0 used to reach the strategies and the engine, which divide by it;
// every name must refuse it up front, naming the parameter.
TEST(RegistryTest, ZeroShardsIsRejectedForEveryName) {
  chain::AccountRegistry registry;
  registry.Intern("0xa");
  AllocatorOptions options = BaseOptions(&registry);
  options.params.num_shards = 0;
  for (const std::string& name : RegisteredNames()) {
    auto made = MakeAllocator(name, options);
    ASSERT_FALSE(made.ok()) << name;
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(made.status().message().find("'num_shards'"), std::string::npos)
        << name << ": " << made.status().ToString();
  }
}

TEST(RegistryTest, BrokerWrapsConfigurableInner) {
  chain::AccountRegistry registry;
  auto made = MakeAllocatorFromSpec("broker:inner=txallo-global,brokers=8",
                                    BaseOptions(&registry));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto* overlay = dynamic_cast<BrokerOverlay*>(made->get());
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->inner().Name(), "txallo-global");
}

TEST(RegistryTest, BrokerRejectsUnknownAndSelfInner) {
  EXPECT_FALSE(MakeAllocatorFromSpec("broker:inner=nope", BaseOptions()).ok());
  EXPECT_FALSE(
      MakeAllocatorFromSpec("broker:inner=broker", BaseOptions()).ok());
}

TEST(RegistryTest, ContribIsRegisteredWithRangeChecks) {
  chain::AccountRegistry registry;
  auto made = MakeAllocatorFromSpec("contrib:imbalance=1.5,stress-weight=2",
                                    BaseOptions(&registry));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_FALSE(
      MakeAllocatorFromSpec("contrib:imbalance=0.9", BaseOptions()).ok());
  EXPECT_FALSE(
      MakeAllocatorFromSpec("contrib:stress-weight=-1", BaseOptions()).ok());
}

TEST(RegistryTest, DescribeAllocatorsCoversEveryRegisteredName) {
  const std::vector<common::EntryDoc> docs = DescribeAllocators();
  const std::vector<std::string> names = RegisteredNames();
  ASSERT_EQ(docs.size(), names.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i].name, names[i]);
    EXPECT_FALSE(docs[i].summary.empty()) << names[i];
    for (const common::OptionDoc& option : docs[i].options) {
      EXPECT_FALSE(option.key.empty()) << names[i];
      EXPECT_FALSE(option.type.empty()) << names[i];
      EXPECT_FALSE(option.default_value.empty()) << names[i];
      EXPECT_FALSE(option.help.empty()) << names[i] << ":" << option.key;
    }
  }
}

TEST(RegistryTest, DocumentedDefaultsAreAcceptedByTheFactory) {
  // The help text cannot drift from the factories: every printed bound is
  // enforced, every declared key is read, and every documented default
  // constructs.
  chain::AccountRegistry registry;
  registry.Intern("0xa");
  common::ExpectDeclarationsEnforced(
      DescribeAllocators(), {},
      [&](const std::string& name, const common::OptionMap& extra) {
        AllocatorOptions options = BaseOptions(&registry);
        options.extra = extra;
        return MakeAllocator(name, options).status();
      });
}

TEST(RegistryTest, UsageTextMentionsEveryNameAndOptionKey) {
  const std::string usage = AllocatorUsageText();
  for (const common::EntryDoc& doc : DescribeAllocators()) {
    EXPECT_NE(usage.find(doc.name), std::string::npos) << doc.name;
    for (const common::OptionDoc& option : doc.options) {
      EXPECT_NE(usage.find(std::string(option.key) + "=<"),
                std::string::npos)
          << doc.name << ":" << option.key;
    }
  }
}

TEST(RegistryTest, SpecOptionsOverrideBaseExtra) {
  chain::AccountRegistry registry;
  AllocatorOptions options = BaseOptions(&registry);
  options.extra["global-every"] = "2";
  // The spec string wins over the pre-seeded extra.
  auto made = MakeAllocatorFromSpec("txallo-hybrid:global-every=5", options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
}

}  // namespace
}  // namespace txallo::allocator
