#include "common/histogram.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rtrec {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, SingleValueStats) {
  Histogram h;
  h.Add(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 100.0, 1.0);
}

TEST(HistogramTest, MeanOfKnownValues) {
  Histogram h;
  for (int v : {10, 20, 30, 40}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 40);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Add(-50);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, PercentilesAreMonotonicAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  double prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double value = h.Percentile(p);
    EXPECT_GE(value, prev);
    EXPECT_GE(value, 1.0);
    EXPECT_LE(value, 1000.0);
    prev = value;
  }
  // Median of 1..1000 should be near 500 within bucket resolution.
  EXPECT_NEAR(h.Percentile(50), 500.0, 200.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Add(5);
  h.Add(10);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Add(1);
  a.Add(2);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(b.count(), 1u);  // Source untouched.
}

TEST(HistogramTest, MergeWithSelfIsNoOp) {
  Histogram a;
  a.Add(7);
  a.Merge(a);
  EXPECT_EQ(a.count(), 1u);
}

TEST(HistogramTest, ConcurrentAddsAreAllCounted) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Add(i % 100);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(42);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("count=1"), std::string::npos);
}

// Property sweep: for any scale of samples, percentiles stay within
// [min, max], are monotone in p, and the mean lies between them.
class HistogramScaleTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramScaleTest, PercentileInvariantsHold) {
  const std::int64_t scale = GetParam();
  Histogram h;
  for (int i = 1; i <= 500; ++i) {
    h.Add(static_cast<std::int64_t>(i) * scale);
  }
  const double min_v = static_cast<double>(h.min());
  const double max_v = static_cast<double>(h.max());
  double prev = min_v;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double value = h.Percentile(p);
    EXPECT_GE(value, min_v);
    EXPECT_LE(value, max_v);
    EXPECT_GE(value + 1e-9, prev) << "non-monotone at p=" << p;
    prev = value;
  }
  EXPECT_GE(h.Mean(), min_v);
  EXPECT_LE(h.Mean(), max_v);
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramScaleTest,
                         ::testing::Values<std::int64_t>(1, 10, 1000,
                                                         1000000,
                                                         1000000000));

TEST(HistogramTest, CumulativeBucketsAreMonotoneAndComplete) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  const Histogram::CumulativeCut cut = h.CumulativeBuckets();
  EXPECT_EQ(cut.count, 1000u);
  EXPECT_DOUBLE_EQ(cut.sum, 1000.0 * 1001.0 / 2.0);
  ASSERT_FALSE(cut.buckets.empty());
  std::uint64_t prev = 0;
  std::int64_t prev_le = -1;
  for (const auto& [le, cumulative] : cut.buckets) {
    EXPECT_GT(le, prev_le);
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    prev_le = le;
  }
  // The last emitted bucket covers every observation.
  EXPECT_EQ(cut.buckets.back().second, 1000u);
}

TEST(ScopedLatencyTimerTest, RecordsOneSample) {
  Histogram h;
  { ScopedLatencyTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedLatencyTimerTest, NullHistogramIsSafe) {
  { ScopedLatencyTimer timer(nullptr); }  // Must not crash.
}

}  // namespace
}  // namespace rtrec
