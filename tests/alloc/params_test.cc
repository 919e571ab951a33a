#include "txallo/alloc/params.h"

#include <gtest/gtest.h>

#include <limits>

namespace txallo::alloc {
namespace {

TEST(ParamsTest, ForExperimentUsesPaperSetting) {
  // λ = |T| / k and ε = 1e-5 |T| (paper §VI-B1).
  AllocationParams p = AllocationParams::ForExperiment(1'000'000, 20, 4.0);
  EXPECT_EQ(p.num_shards, 20u);
  EXPECT_DOUBLE_EQ(p.eta, 4.0);
  EXPECT_DOUBLE_EQ(p.capacity, 50'000.0);
  EXPECT_DOUBLE_EQ(p.epsilon, 10.0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ParamsTest, ValidateRejectsZeroShards) {
  AllocationParams p = AllocationParams::ForExperiment(100, 1, 2.0);
  p.num_shards = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ParamsTest, ValidateRejectsEtaBelowOne) {
  AllocationParams p = AllocationParams::ForExperiment(100, 2, 2.0);
  p.eta = 0.5;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ParamsTest, ValidateRejectsNonPositiveCapacity) {
  AllocationParams p = AllocationParams::ForExperiment(100, 2, 2.0);
  p.capacity = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ParamsTest, ValidateRejectsNegativeEpsilon) {
  AllocationParams p = AllocationParams::ForExperiment(100, 2, 2.0);
  p.epsilon = -1.0;
  EXPECT_FALSE(p.Validate().ok());
}

// Every comparison with NaN is false, so a check written as `eta < 1.0`
// passes NaN; each check must refuse NaN and both infinities.
TEST(ParamsTest, ValidateRejectsNonFiniteValues) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    AllocationParams p = AllocationParams::ForExperiment(100, 2, 2.0);
    p.eta = bad;
    EXPECT_FALSE(p.Validate().ok()) << "eta " << bad;
    p = AllocationParams::ForExperiment(100, 2, 2.0);
    p.capacity = bad;
    EXPECT_FALSE(p.Validate().ok()) << "capacity " << bad;
    p = AllocationParams::ForExperiment(100, 2, 2.0);
    p.epsilon = bad;
    EXPECT_FALSE(p.Validate().ok()) << "epsilon " << bad;
  }
}

TEST(ParamsTest, EtaEqualOneIsAllowed) {
  // η = 1 degenerates σ to the degree sum (paper §VI-B4 discussion).
  AllocationParams p = AllocationParams::ForExperiment(100, 2, 1.0);
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace txallo::alloc
