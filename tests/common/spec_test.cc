// The registry scaffold shared by --allocator= and --scenario=: the
// "name[:key=value,...]" grammar, the strict readers, the declaration-driven
// unknown-key and bound checks, and the lookup / usage rendering. The
// registries own their names and keys; the edge cases of this layer live
// here once.
#include "txallo/common/spec.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace txallo::common {
namespace {

TEST(ParseSpecTest, BareNameHasNoOptions) {
  auto parsed = ParseSpec("ethereum");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "ethereum");
  EXPECT_TRUE(parsed->options.empty());
}

TEST(ParseSpecTest, NameWithOptionsSplitsOnColonAndCommas) {
  auto parsed = ParseSpec("spike:peak-share=0.7,start=3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "spike");
  ASSERT_EQ(parsed->options.size(), 2u);
  EXPECT_EQ(parsed->options.at("peak-share"), "0.7");
  EXPECT_EQ(parsed->options.at("start"), "3");
}

TEST(ParseSpecTest, ValueMayContainEquals) {
  // Only the first '=' in a clause separates key from value.
  auto parsed = ParseSpec("x:expr=a=b");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->options.at("expr"), "a=b");
}

TEST(ParseSpecTest, TrailingColonMeansNoOptions) {
  auto parsed = ParseSpec("hash:");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "hash");
  EXPECT_TRUE(parsed->options.empty());
}

TEST(ParseSpecTest, EmptyClausesAreSkipped) {
  auto parsed = ParseSpec("x:a=1,,b=2,");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->options.size(), 2u);
}

TEST(ParseSpecTest, EmptyNameIsInvalid) {
  EXPECT_FALSE(ParseSpec("").ok());
  EXPECT_FALSE(ParseSpec(":a=1").ok());
  EXPECT_EQ(ParseSpec(":a=1").status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseSpecTest, MalformedClauseIsInvalid) {
  auto parsed = ParseSpec("x:noequals");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("noequals"), std::string::npos);
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

TEST(ParseOptionListTest, DuplicateKeyIsRejectedNotLastOneWins) {
  auto options = ParseOptionList("a=1,a=2");
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(options.status().message().find("'a'"), std::string::npos);
}

TEST(ParseOptionListTest, EmptyKeyIsRejected) {
  EXPECT_FALSE(ParseOptionList("=1").ok());
}

TEST(ParseOptionListTest, RejectsEmptyKey) {
  auto options = ParseOptionList("a=1,=2");
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseOptionListTest, RejectsDuplicateKey) {
  // Duplicates are caught even when they are not adjacent.
  auto options = ParseOptionList("a=1,b=2,a=3");
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find("duplicate"), std::string::npos);
}

TEST(ParseOptionListTest, EmptyValueIsAllowed) {
  // The registries decide whether "" parses as their value type.
  auto options = ParseOptionList("a=");
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->at("a"), "");
}

TEST(SpecReaderTest, AbsentKeyLeavesDefault) {
  const OptionMap options;
  uint64_t u64 = 7;
  uint32_t u32 = 8;
  int64_t i64 = -9;
  double d = 0.5;
  EXPECT_TRUE(ReadUint64(options, "n", &u64).ok());
  EXPECT_TRUE(ReadUint32(options, "n", &u32).ok());
  EXPECT_TRUE(ReadInt64(options, "n", &i64).ok());
  EXPECT_TRUE(ReadDouble(options, "n", &d).ok());
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(u32, 8u);
  EXPECT_EQ(i64, -9);
  EXPECT_EQ(d, 0.5);
}

TEST(SpecReaderTest, ParsesWholeValues) {
  const OptionMap options{{"u", "18446744073709551615"}, {"w", "4294967295"},
                          {"i", "-12"}, {"d", "-2.5"}};
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  ASSERT_TRUE(ReadUint64(options, "u", &u64).ok());
  ASSERT_TRUE(ReadUint32(options, "w", &u32).ok());
  ASSERT_TRUE(ReadInt64(options, "i", &i64).ok());
  ASSERT_TRUE(ReadDouble(options, "d", &d).ok());
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_EQ(i64, -12);
  EXPECT_EQ(d, -2.5);
}

TEST(SpecReaderTest, UnsignedReadersRejectNegativeValues) {
  // strtoull accepts "-3" and wraps it to 2^64 - 3; the readers must not.
  const OptionMap options{{"n", "-3"}, {"z", "-0"}};
  uint64_t u64 = 5;
  uint32_t u32 = 5;
  for (const char* key : {"n", "z"}) {
    SCOPED_TRACE(key);
    Status status = ReadUint64(options, key, &u64);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(std::string("'") + key + "'"),
              std::string::npos);
    EXPECT_NE(status.message().find(options.at(key)), std::string::npos);
    EXPECT_EQ(ReadUint32(options, key, &u32).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(u64, 5u);
  EXPECT_EQ(u32, 5u);
}

TEST(SpecReaderTest, MalformedAndOutOfRangeValuesAreRejected) {
  const OptionMap options{{"junk", "12banana"},   {"empty", ""},
                          {"space", " 4"},        {"big", "4294967296"},
                          {"huge", "18446744073709551616"},
                          {"nan", "nan"},         {"inf", "-inf"}};
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  for (const char* key : {"junk", "empty", "space", "huge"}) {
    SCOPED_TRACE(key);
    EXPECT_EQ(ReadUint64(options, key, &u64).code(),
              StatusCode::kInvalidArgument);
  }
  Status big = ReadUint32(options, "big", &u32);
  EXPECT_EQ(big.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(big.message().find("4294967296"), std::string::npos);
  EXPECT_EQ(ReadInt64(options, "junk", &i64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadInt64(options, "huge", &i64).code(),
            StatusCode::kInvalidArgument);
  for (const char* key : {"empty", "nan", "inf"}) {
    SCOPED_TRACE(key);
    EXPECT_EQ(ReadDouble(options, key, &d).code(),
              StatusCode::kInvalidArgument);
  }
}

constexpr OptionDoc kDeclared[] = {
    {"n", "uint", "1", kAtLeastOne, "count"},
    {"f", "double", "0.5", kFraction, "share"},
    {"r", "double", "1.0", kPositive, "rate"},
    {"name", "string", "a", {"any name"}, "label"},
};
constexpr OptionDoc kShared[] = {{"seed", "uint", "42", kAnyValue, "seed"}};

TEST(ExpectOnlyTest, UnknownKeyNamesKindNameAndKnownKeys) {
  const OptionMap options{{"n", "1"}, {"seed", "2"}, {"typo", "3"}};
  OptionMap known = options;
  known.erase("typo");
  EXPECT_TRUE(
      OptionReader(known, kDeclared, kShared).ExpectOnly("scenario", "x").ok());
  Status status =
      OptionReader(options, kDeclared, kShared).ExpectOnly("scenario", "x");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'typo' for scenario 'x'"),
            std::string::npos);
  EXPECT_NE(status.message().find("known: n, f, r, name, seed"),
            std::string::npos);
  Status none = OptionReader(options, {}).ExpectOnly("allocator", "hash");
  EXPECT_NE(none.message().find("known: <none>"), std::string::npos);
}

TEST(OptionReaderTest, ReadsDeclaredKeysAndLeavesAbsentOnesAtTheirDefault) {
  const OptionMap options{{"n", "3"}, {"f", "1"}, {"name", "b"},
                          {"seed", "7"}};
  const OptionReader read(options, kDeclared, kShared);
  uint32_t n = 0;
  uint64_t seed = 0;
  double f = 0.0;
  double r = 2.5;
  std::string name = "a";
  ASSERT_TRUE(read.Read("n", &n).ok());
  ASSERT_TRUE(read.Read("seed", &seed).ok());
  ASSERT_TRUE(read.Read("f", &f).ok());
  ASSERT_TRUE(read.Read("r", &r).ok());
  ASSERT_TRUE(read.Read("name", &name).ok());
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(f, 1.0);
  EXPECT_EQ(r, 2.5);  // Absent: the default, unchecked.
  EXPECT_EQ(name, "b");
}

TEST(OptionReaderTest, DeclaredBoundIsEnforcedNamingKeyAndValue) {
  const std::pair<const char*, const char*> cases[] = {
      {"n", "0"},   {"f", "1.5"},  {"f", "-0.1"},
      {"r", "0"},   {"r", "-2"},
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    const OptionMap options{{key, value}};
    const OptionReader read(options, kDeclared);
    double d = 0.0;
    uint32_t u = 0;
    const Status status = std::string(key) == "n" ? read.Read(key, &u)
                                                  : read.Read(key, &d);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(std::string("'") + key + "'"),
              std::string::npos);
    EXPECT_NE(status.message().find(std::string("'") + value + "'"),
              std::string::npos);
  }
  // Parse errors still come first: nan is no number at all.
  const OptionMap nan{{"f", "nan"}};
  double f = 0.0;
  EXPECT_EQ(OptionReader(nan, kDeclared).Read("f", &f).code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionReaderTest, UndeclaredOrMistypedReadIsInternal) {
  const OptionMap options;
  const OptionReader read(options, kDeclared);
  uint64_t u = 0;
  double d = 0.0;
  EXPECT_EQ(read.Read("missing", &u).code(), StatusCode::kInternal);
  EXPECT_EQ(read.Read("n", &d).code(), StatusCode::kInternal);
}

TEST(SpecUsageTest, FindEntryAndUsageTextRenderTheDeclarations) {
  const EntryDoc docs[] = {{"alpha", "first", kDeclared},
                           {"beta", "second", {}}};
  EXPECT_EQ(EntryNames(docs), (std::vector<std::string>{"alpha", "beta"}));
  ASSERT_TRUE(FindEntry("thing", docs, "beta").ok());
  EXPECT_EQ(*FindEntry("thing", docs, "beta"), 1u);
  const Status missing = FindEntry("thing", docs, "gamma").status();
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.message(),
            "no thing registered under 'gamma' (registered: alpha, beta)");
  const std::string usage =
      UsageText("Thing", "", docs, "(no options)", "--thing=alpha\n");
  EXPECT_NE(usage.find("Thing specs: NAME or NAME:key=value"),
            std::string::npos);
  EXPECT_NE(usage.find("    f=<double>  default 0.5, [0, 1] — share\n"),
            std::string::npos);
  EXPECT_NE(usage.find("beta\n    second\n    (no options)\n"),
            std::string::npos);
  EXPECT_NE(usage.find("\nExamples: --thing=alpha\n"), std::string::npos);
}

}  // namespace
}  // namespace txallo::common
