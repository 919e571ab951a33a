#include "txallo/common/flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace txallo {
namespace {

Flags ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(static_cast<int>(args.size()),
                      const_cast<char**>(args.data()));
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseArgs({"--txs=5000", "--eta=2.5", "--name=run1"});
  EXPECT_EQ(f.GetInt("txs", 0), 5000);
  EXPECT_DOUBLE_EQ(f.GetDouble("eta", 0.0), 2.5);
  EXPECT_EQ(f.GetString("name", ""), "run1");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseArgs({"--txs", "7000"});
  EXPECT_EQ(f.GetInt("txs", 0), 7000);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetInt("txs", 123), 123);
  EXPECT_DOUBLE_EQ(f.GetDouble("eta", 4.5), 4.5);
  EXPECT_FALSE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.Has("txs"));
}

TEST(FlagsTest, MalformedNumberFallsBackToDefault) {
  Flags f = ParseArgs({"--txs=abc"});
  EXPECT_EQ(f.GetInt("txs", 55), 55);
}

TEST(FlagsTest, BoolSpellings) {
  Flags f = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

TEST(FlagsTest, UnknownNameIsRejectedByName) {
  const std::vector<std::string_view> known = {"brokers", "k"};
  EXPECT_TRUE(ParseArgs({"--brokers=3", "--k", "4"}).CheckNames(known).ok());
  EXPECT_TRUE(ParseArgs({}).CheckNames(known).ok());
  const Status typo =
      ParseArgs({"--k=4", "--brokers-typo=3"}).CheckNames(known);
  EXPECT_EQ(typo.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(typo.message(), "unknown flag --brokers-typo");
  // A bare flag and a space-separated value are names like any other.
  EXPECT_FALSE(ParseArgs({"--verbose"}).CheckNames(known).ok());
  EXPECT_FALSE(ParseArgs({"--kk", "4"}).CheckNames(known).ok());
}

TEST(BenchScaleTest, FlagOverridesPreset) {
  Flags f = ParseArgs({"--scale=small", "--txs=999", "--max-shards=12"});
  Result<BenchScale> scale = ResolveBenchScale(f);
  ASSERT_TRUE(scale.ok()) << scale.status().ToString();
  EXPECT_EQ(scale->num_transactions, 999u);
  EXPECT_EQ(scale->max_shards, 12);
}

TEST(BenchScaleTest, ThreadsFlagPinsEngineParallelism) {
  Flags f = ParseArgs({"--threads=6"});
  EXPECT_EQ(ResolveBenchScale(f)->num_threads, 6);
}

TEST(BenchScaleTest, ThreadsDefaultsToAuto) {
  // 0 = let the engine pick (hardware concurrency clamped to shards).
  // Hermetic against the caller's environment.
  ::unsetenv("TXALLO_THREADS");
  Flags f = ParseArgs({});
  EXPECT_EQ(ResolveBenchScale(f)->num_threads, 0);
}

TEST(BenchScaleTest, ThreadsEnvIsTheFallback) {
  ::setenv("TXALLO_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ResolveBenchScale(ParseArgs({}))->num_threads, 5);
  // An explicit flag still wins over the environment.
  EXPECT_EQ(ResolveBenchScale(ParseArgs({"--threads=2"}))->num_threads, 2);
  ::unsetenv("TXALLO_THREADS");
}

TEST(BenchScaleTest, NegativeThreadsClampsToAuto) {
  // Explicit nonsense clamps to auto; it must NOT fall through to the env.
  ::setenv("TXALLO_THREADS", "7", /*overwrite=*/1);
  Flags f = ParseArgs({"--threads=-3"});
  EXPECT_EQ(ResolveBenchScale(f)->num_threads, 0);
  ::unsetenv("TXALLO_THREADS");
}

TEST(BenchScaleTest, PresetsAreOrdered) {
  Flags small = ParseArgs({"--scale=small"});
  Flags medium = ParseArgs({"--scale=medium"});
  Flags large = ParseArgs({"--scale=large"});
  EXPECT_LT(ResolveBenchScale(small)->num_transactions,
            ResolveBenchScale(medium)->num_transactions);
  EXPECT_LT(ResolveBenchScale(medium)->num_transactions,
            ResolveBenchScale(large)->num_transactions);
}

TEST(BenchScaleTest, UnknownScaleFailsNamingValueAndPresets) {
  const Result<BenchScale> typo = ResolveBenchScale(ParseArgs({"--scale=tiny"}));
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  const std::string message = typo.status().ToString();
  for (const char* word : {"tiny", "small", "medium", "large"}) {
    EXPECT_NE(message.find(word), std::string::npos) << message;
  }
  // The environment fallback is checked the same way, and a valid flag
  // still beats it.
  ::setenv("TXALLO_SCALE", "huge", /*overwrite=*/1);
  const Result<BenchScale> from_env = ResolveBenchScale(ParseArgs({}));
  EXPECT_FALSE(from_env.ok());
  EXPECT_NE(from_env.status().ToString().find("huge"), std::string::npos);
  EXPECT_TRUE(ResolveBenchScale(ParseArgs({"--scale=medium"})).ok());
  ::unsetenv("TXALLO_SCALE");
}

TEST(BenchScaleTest, StepBelowOneFailsQuotingTheFlag) {
  // 0 would never end the k sweep or would divide a timeline's blocks by
  // zero; a negative value is no better.
  for (const char* name : {"shard-step", "steps", "blocks-per-step"}) {
    for (const char* value : {"0", "-3"}) {
      const std::string arg = std::string("--") + name + "=" + value;
      const Result<BenchScale> scale =
          ResolveBenchScale(ParseArgs({arg.c_str()}));
      ASSERT_FALSE(scale.ok()) << arg;
      EXPECT_EQ(scale.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(scale.status().message().find(std::string("'") + name + "'"),
                std::string::npos)
          << scale.status().ToString();
    }
    const std::string one = std::string("--") + name + "=1";
    EXPECT_TRUE(ResolveBenchScale(ParseArgs({one.c_str()})).ok()) << one;
  }
}

TEST(BenchScaleTest, CountBelowOneFailsQuotingTheFlag) {
  // Zero accounts or transactions is a degenerate ledger, and a negative
  // count must not wrap to a huge unsigned one.
  for (const char* name : {"accounts", "txs"}) {
    for (const char* value : {"0", "-3"}) {
      const std::string arg = std::string("--") + name + "=" + value;
      const Result<BenchScale> scale =
          ResolveBenchScale(ParseArgs({arg.c_str()}));
      ASSERT_FALSE(scale.ok()) << arg;
      EXPECT_EQ(scale.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(scale.status().message().find(std::string("'") + name + "'"),
                std::string::npos)
          << scale.status().ToString();
    }
  }
  const Result<BenchScale> one =
      ResolveBenchScale(ParseArgs({"--accounts=1", "--txs=1"}));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->num_accounts, 1u);
  EXPECT_EQ(one->num_transactions, 1u);
}

}  // namespace
}  // namespace txallo
