#include "common/vec_math.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace rtrec {
namespace {

TEST(VecMathTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot({1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(Dot({1.0f, -1.0f}, {1.0f, 1.0f}), 0.0);
}

TEST(VecMathTest, UnrolledDotHandlesAllTailLengths) {
  // The 4-way unrolled accumulator must agree with a plain loop for every
  // remainder length (n mod 4) and for n < 4.
  for (std::size_t n = 0; n <= 13; ++n) {
    std::vector<float> a(n);
    std::vector<float> b(n);
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(i) + 0.5f;
      b[i] = 2.0f - static_cast<float>(i) * 0.25f;
      expected += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    EXPECT_DOUBLE_EQ(Dot(a, b), expected) << "n = " << n;
    EXPECT_DOUBLE_EQ(Dot(a.data(), b.data(), n), expected) << "n = " << n;
  }
}

TEST(VecMathTest, Norms) {
  EXPECT_DOUBLE_EQ(NormSquared({3.0f, 4.0f}), 25.0);
  EXPECT_DOUBLE_EQ(Norm({3.0f, 4.0f}), 5.0);
  EXPECT_DOUBLE_EQ(Norm({}), 0.0);
}

TEST(VecMathTest, CosineSimilarity) {
  EXPECT_NEAR(CosineSimilarity({1.0f, 0.0f}, {1.0f, 0.0f}), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1.0f, 0.0f}, {0.0f, 1.0f}), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1.0f, 0.0f}, {-1.0f, 0.0f}), -1.0, 1e-9);
  // Zero vector guards.
  EXPECT_DOUBLE_EQ(CosineSimilarity({0.0f, 0.0f}, {1.0f, 1.0f}), 0.0);
}

TEST(TypesTest, VideoPairNormalizesOrder) {
  VideoPair a(5, 3);
  EXPECT_EQ(a.first, 3u);
  EXPECT_EQ(a.second, 5u);
  VideoPair b(3, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(VideoPairHash{}(a), VideoPairHash{}(b));
}

TEST(TypesTest, VideoPairHashDistinguishesPairs) {
  VideoPairHash hash;
  EXPECT_NE(hash(VideoPair(1, 2)), hash(VideoPair(1, 3)));
  EXPECT_NE(hash(VideoPair(1, 2)), hash(VideoPair(2, 3)));
}

TEST(TypesTest, MixHash64SpreadsSequentialInputs) {
  // Sequential ids must not map to sequential hashes (shard balance).
  std::uint64_t h0 = MixHash64(0);
  std::uint64_t h1 = MixHash64(1);
  EXPECT_NE(h0 + 1, h1);
  EXPECT_NE(h0, h1);
}

}  // namespace
}  // namespace rtrec
