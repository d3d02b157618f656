#include "core/similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace rtrec {
namespace {

TEST(CfSimilarityTest, InnerProductOfLatentVectors) {
  const std::vector<float> a = {1.0f, 2.0f};
  const std::vector<float> b = {3.0f, 4.0f};
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> y = {0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(CfSimilarity(a, b), 11.0);
  EXPECT_DOUBLE_EQ(CfSimilarity(x, y), 0.0);
}

TEST(CfSimilarityTest, Symmetric) {
  const std::vector<float> a = {0.5f, -1.5f, 2.0f};
  const std::vector<float> b = {1.0f, 0.25f, -0.75f};
  EXPECT_DOUBLE_EQ(CfSimilarity(a, b), CfSimilarity(b, a));
}

TEST(TypeSimilarityTest, Eq10Indicator) {
  EXPECT_DOUBLE_EQ(TypeSimilarity(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(TypeSimilarity(3, 4), 0.0);
  EXPECT_DOUBLE_EQ(TypeSimilarity(0, 0), 1.0);
}

TEST(TimeDecayTest, HalvesEveryXi) {
  EXPECT_DOUBLE_EQ(TimeDecay(0, 1000.0), 1.0);
  EXPECT_NEAR(TimeDecay(1000, 1000.0), 0.5, 1e-12);
  EXPECT_NEAR(TimeDecay(2000, 1000.0), 0.25, 1e-12);
  EXPECT_NEAR(TimeDecay(3000, 1000.0), 0.125, 1e-12);
}

TEST(TimeDecayTest, NonPositiveDeltaGivesOne) {
  EXPECT_DOUBLE_EQ(TimeDecay(-5000, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(TimeDecay(0, 1.0), 1.0);
}

TEST(TimeDecayTest, MonotoneDecreasing) {
  double prev = 1.1;
  for (Timestamp dt = 0; dt < 10000; dt += 500) {
    const double d = TimeDecay(dt, 1500.0);
    EXPECT_LT(d, prev);
    EXPECT_GT(d, 0.0);
    prev = d;
  }
}

TEST(TimeDecayTest, LargerXiDecaysSlower) {
  EXPECT_GT(TimeDecay(1000, 2000.0), TimeDecay(1000, 500.0));
}

TEST(FuseSimilarityTest, Eq12Blending) {
  EXPECT_DOUBLE_EQ(FuseSimilarity(0.8, 1.0, 0.0), 0.8);   // Pure CF.
  EXPECT_DOUBLE_EQ(FuseSimilarity(0.8, 1.0, 1.0), 1.0);   // Pure type.
  EXPECT_DOUBLE_EQ(FuseSimilarity(0.8, 1.0, 0.25), 0.25 * 1.0 + 0.75 * 0.8);
}

TEST(FuseSimilarityTest, LinearInBeta) {
  const double s1 = 0.4, s2 = 1.0;
  const double at_0 = FuseSimilarity(s1, s2, 0.0);
  const double at_half = FuseSimilarity(s1, s2, 0.5);
  const double at_1 = FuseSimilarity(s1, s2, 1.0);
  EXPECT_NEAR(at_half, (at_0 + at_1) / 2.0, 1e-12);
}

TEST(FuseSimilarityTest, SameTypeBoostsRelevance) {
  // With matching types, fused similarity strictly exceeds pure CF when
  // beta > 0 and s1 < 1 — the mechanism that makes same-type videos more
  // likely candidates.
  const double cf = 0.3;
  EXPECT_GT(FuseSimilarity(cf, 1.0, 0.3), cf);
  EXPECT_LT(FuseSimilarity(cf, 0.0, 0.3), cf);
}

// Property sweep over the fused+decayed pipeline: result bounded by
// max(s1, s2) and decays toward zero.
class FusionParamTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FusionParamTest, FusedDecayedSimilarityBounded) {
  const auto [s1, beta, xi] = GetParam();
  for (VideoType t2 : {0u, 1u}) {
    const double s2 = TypeSimilarity(0, t2);
    const double fused = FuseSimilarity(s1, s2, beta);
    EXPECT_LE(fused, std::max(s1, s2) + 1e-12);
    for (Timestamp dt : {Timestamp{0}, Timestamp{1000}, Timestamp{100000}}) {
      const double decayed = fused * TimeDecay(dt, xi);
      EXPECT_LE(std::abs(decayed), std::abs(fused) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusionParamTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.9),
                       ::testing::Values(0.0, 0.3, 1.0),
                       ::testing::Values(100.0, 10000.0)));

}  // namespace
}  // namespace rtrec
