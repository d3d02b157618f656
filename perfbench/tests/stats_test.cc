#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(StatsTest, NearestRankPicksCeilRank) {
  EXPECT_EQ(NearestRank({1, 2, 3, 4}, 50), 2);
  EXPECT_EQ(NearestRank({1, 2, 3, 4}, 51), 3);
  EXPECT_EQ(NearestRank({7}, 99), 7);
  EXPECT_TRUE(std::isnan(NearestRank({}, 50)));
}

TEST(StatsTest, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(SupportedTailPercentile(1000), 99.0);  // 10 beyond p99.
  EXPECT_EQ(SupportedTailPercentile(999), 95.0);   // 9.99 beyond p99.
  EXPECT_EQ(SupportedTailPercentile(200), 95.0);
  EXPECT_EQ(SupportedTailPercentile(100), 90.0);
  EXPECT_EQ(SupportedTailPercentile(40), 75.0);
  EXPECT_EQ(SupportedTailPercentile(20), 50.0);
  EXPECT_EQ(SupportedTailPercentile(19), 0.0);
  EXPECT_EQ(SupportedTailPercentile(100000, 99.9), 99.9);
  EXPECT_EQ(SupportedTailPercentile(100000), 99.0);  // Default cap.
}

TEST(StatsTest, SummarizeReportsMedianAndSupportedTail) {
  const Timing t = Summarize(Range(1000), 0);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.p50, 500);
  EXPECT_EQ(t.tail_percentile, 99.0);
  EXPECT_EQ(t.tail, 990);
  // A cap lowers the tail percentile even when p99 has support.
  const Timing capped = Summarize(Range(1000), 0, 95.0);
  EXPECT_EQ(capped.tail_percentile, 95.0);
  EXPECT_EQ(capped.tail, 950);
}

TEST(StatsTest, FailuresCountAsLimitMisses) {
  // 990 fast successes plus 10 failures: the failures are the 10 samples
  // beyond p99, so p99 itself is still a success...
  std::vector<double> fast(990, 100.0);
  Timing t = Summarize(fast, 10);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.tail, 100.0);
  // ...but one more failure puts +inf at the p99 rank.
  t = Summarize(std::vector<double>(989, 100.0), 11);
  EXPECT_TRUE(std::isinf(t.tail));
  // A majority of failures drags the median to +inf too.
  t = Summarize(std::vector<double>(10, 1.0), 30);
  EXPECT_TRUE(std::isinf(t.p50));
}

Rung MakeRung(double offered, double achieved, double tail_us,
              std::size_t failed = 0) {
  Rung r;
  r.offered_qps = offered;
  r.achieved_qps = achieved;
  r.latency = Summarize(std::vector<double>(2000, tail_us), failed);
  return r;
}

TEST(StatsTest, RungNeedsLatencyRateAndNoFailures) {
  EXPECT_TRUE(RungPasses(MakeRung(1000, 995, 900), 1000));
  EXPECT_FALSE(RungPasses(MakeRung(1000, 985, 900), 1000));   // Rate.
  EXPECT_FALSE(RungPasses(MakeRung(1000, 1000, 1100), 1000));  // Latency.
  EXPECT_FALSE(RungPasses(MakeRung(1000, 1000, 900, 1), 1000));  // Failed.
  Rung tiny;  // Too few samples for any tail percentile.
  tiny.offered_qps = tiny.achieved_qps = 10;
  tiny.latency = Summarize({1, 2, 3}, 0);
  EXPECT_FALSE(RungPasses(tiny, 1000));
}

TEST(StatsTest, CapacityIsHighestRungOfAPassingPrefix) {
  std::vector<Rung> ladder = {MakeRung(1000, 1000, 100),
                              MakeRung(2000, 2000, 200),
                              MakeRung(4000, 3500, 5000),
                              MakeRung(8000, 8000, 100)};
  // Rung 3 passes, but only because of noise above a failed rung.
  EXPECT_EQ(CapacityRung(ladder, 1000), 1);
  ladder[0] = MakeRung(1000, 1000, 2000);
  EXPECT_EQ(CapacityRung(ladder, 1000), -1);
  EXPECT_EQ(CapacityRung({}, 1000), -1);
}

TEST(StatsTest, SelfTimeSubtractsChildren) {
  EXPECT_DOUBLE_EQ(SelfTime(10.0, {3.0, 2.5}), 4.5);
  EXPECT_DOUBLE_EQ(SelfTime(10.0, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTime(1.0, {2.0}), -1.0);  // Overshoot stays visible.
}

TEST(StatsTest, UnexplainedFracIsTheBudgetRemainder) {
  EXPECT_DOUBLE_EQ(UnexplainedFrac(100.0, {40.0, 35.0}), 0.25);
  EXPECT_NEAR(UnexplainedFrac(100.0, {60.0, 50.0}), -0.1, 1e-12);
  EXPECT_TRUE(std::isnan(UnexplainedFrac(0.0, {1.0})));
}

TEST(StatsTest, MedianOfRunValues) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

}  // namespace
}  // namespace perfbench
