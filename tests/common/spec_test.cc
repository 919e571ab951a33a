// The uniform "name[:key=value,...]" grammar shared by --allocator= and
// --scenario=. The registries own name/key/value semantics; this layer owns
// the split rules, so the edge cases live here once.
#include "txallo/common/spec.h"

#include <gtest/gtest.h>

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

TEST(ParseOptionListTest, DuplicateKeyIsRejectedNotLastOneWins) {
  auto options = ParseOptionList("a=1,a=2");
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("'a'"), std::string::npos);
}

TEST(ParseOptionListTest, EmptyKeyIsRejected) {
  EXPECT_FALSE(ParseOptionList("=1").ok());
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
  double f = 0.25;
  EXPECT_TRUE(ReadUint64(options, "n", &u64).ok());
  EXPECT_TRUE(ReadUint32(options, "n", &u32).ok());
  EXPECT_TRUE(ReadInt64(options, "n", &i64).ok());
  EXPECT_TRUE(ReadDouble(options, "n", &d).ok());
  EXPECT_TRUE(ReadFraction(options, "n", &f).ok());
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(u32, 8u);
  EXPECT_EQ(i64, -9);
  EXPECT_EQ(d, 0.5);
  EXPECT_EQ(f, 0.25);
}

TEST(SpecReaderTest, ParsesWholeValues) {
  const OptionMap options{{"u", "18446744073709551615"}, {"w", "4294967295"},
                          {"i", "-12"}, {"d", "-2.5"}, {"f", "1"}};
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  double f = 0.0;
  ASSERT_TRUE(ReadUint64(options, "u", &u64).ok());
  ASSERT_TRUE(ReadUint32(options, "w", &u32).ok());
  ASSERT_TRUE(ReadInt64(options, "i", &i64).ok());
  ASSERT_TRUE(ReadDouble(options, "d", &d).ok());
  ASSERT_TRUE(ReadFraction(options, "f", &f).ok());
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_EQ(i64, -12);
  EXPECT_EQ(d, -2.5);
  EXPECT_EQ(f, 1.0);
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
                          {"frac", "1.5"},        {"nan", "nan"},
                          {"inf", "-inf"}};
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
  for (const char* key : {"frac", "nan"}) {
    SCOPED_TRACE(key);
    EXPECT_EQ(ReadFraction(options, key, &d).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ExpectOnlyTest, UnknownKeyNamesKindNameAndKnownKeys) {
  const OptionMap options{{"a", "1"}, {"typo", "2"}};
  EXPECT_TRUE(ExpectOnly("scenario", "x", options, {"a", "typo"}).ok());
  Status status = ExpectOnly("scenario", "x", options, {"a", "b"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'typo' for scenario 'x'"),
            std::string::npos);
  EXPECT_NE(status.message().find("known: a, b"), std::string::npos);
  Status none = ExpectOnly("allocator", "hash", options, {});
  EXPECT_NE(none.message().find("known: <none>"), std::string::npos);
}

}  // namespace
}  // namespace txallo::common
