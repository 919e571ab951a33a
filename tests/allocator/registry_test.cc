// Unit tests for the allocator registry and its key=value options parser:
// unknown names, unknown keys and malformed values must all fail loudly,
// and every registered name must construct and describe itself.
#include <gtest/gtest.h>

#include <algorithm>

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

TEST(ParseOptionListTest, ParsesKeyValuePairs) {
  auto options = ParseOptionList("a=1,b=two,c=3.5");
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->size(), 3u);
  EXPECT_EQ(options->at("a"), "1");
  EXPECT_EQ(options->at("b"), "two");
  EXPECT_EQ(options->at("c"), "3.5");
}

TEST(ParseOptionListTest, EmptyStringIsNoOptions) {
  auto options = ParseOptionList("");
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->empty());
}

TEST(ParseOptionListTest, RejectsClauseWithoutEquals) {
  auto options = ParseOptionList("a=1,bogus");
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find("bogus"), std::string::npos);
}

TEST(ParseOptionListTest, RejectsEmptyKey) {
  EXPECT_FALSE(ParseOptionList("=1").ok());
}

TEST(ParseOptionListTest, RejectsDuplicateKey) {
  auto options = ParseOptionList("a=1,a=2");
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("duplicate"), std::string::npos);
}

TEST(ParseAllocatorSpecTest, NameOnly) {
  auto spec = ParseAllocatorSpec("metis");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "metis");
  EXPECT_TRUE(spec->options.empty());
}

TEST(ParseAllocatorSpecTest, NameWithOptions) {
  auto spec = ParseAllocatorSpec("txallo-hybrid:global-every=4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "txallo-hybrid");
  EXPECT_EQ(spec->options.at("global-every"), "4");
}

TEST(ParseAllocatorSpecTest, RejectsEmptyName) {
  EXPECT_FALSE(ParseAllocatorSpec("").ok());
  EXPECT_FALSE(ParseAllocatorSpec(":a=1").ok());
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
  for (const std::string& name : RegisteredNames()) {
    auto made = MakeAllocator(name, BaseOptions(&registry));
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().ToString();
    EXPECT_EQ((*made)->Name(), name);
    EXPECT_FALSE(DescribeAllocator(name).empty()) << name;
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
  EXPECT_FALSE(MakeAllocatorFromSpec("metis:imbalance=0.5",
                                     BaseOptions()).ok());
  EXPECT_FALSE(MakeAllocatorFromSpec("louvain:resolution=0",
                                     BaseOptions()).ok());
}

TEST(RegistryTest, TxAlloNamesRequireRegistry) {
  auto made = MakeAllocator("txallo-global", BaseOptions(nullptr));
  ASSERT_FALSE(made.ok());
  EXPECT_NE(made.status().message().find("registry"), std::string::npos);
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
  const std::vector<AllocatorDoc> docs = DescribeAllocators();
  const std::vector<std::string> names = RegisteredNames();
  ASSERT_EQ(docs.size(), names.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i].name, names[i]);
    EXPECT_FALSE(docs[i].summary.empty()) << docs[i].name;
    for (const AllocatorOptionDoc& option : docs[i].options) {
      EXPECT_FALSE(option.key.empty()) << docs[i].name;
      EXPECT_FALSE(option.type.empty()) << docs[i].name;
      EXPECT_FALSE(option.default_value.empty()) << docs[i].name;
      EXPECT_FALSE(option.help.empty())
          << docs[i].name << ":" << option.key;
    }
  }
}

TEST(RegistryTest, DocumentedDefaultsAreAcceptedByTheFactory) {
  // The metadata cannot drift from the factories: every documented option,
  // set to its documented default, must construct.
  chain::AccountRegistry registry;
  registry.Intern("0xa");
  for (const AllocatorDoc& doc : DescribeAllocators()) {
    AllocatorOptions options = BaseOptions(&registry);
    for (const AllocatorOptionDoc& option : doc.options) {
      options.extra[option.key] = option.default_value;
    }
    auto made = MakeAllocator(doc.name, options);
    EXPECT_TRUE(made.ok()) << doc.name << ": " << made.status().ToString();
  }
}

TEST(RegistryTest, UsageTextMentionsEveryNameAndOptionKey) {
  const std::string usage = AllocatorUsageText();
  for (const AllocatorDoc& doc : DescribeAllocators()) {
    EXPECT_NE(usage.find(doc.name), std::string::npos) << doc.name;
    for (const AllocatorOptionDoc& option : doc.options) {
      EXPECT_NE(usage.find(option.key + "=<"), std::string::npos)
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
