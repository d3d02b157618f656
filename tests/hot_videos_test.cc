#include "demographic/hot_videos.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rtrec {
namespace {

HotVideoTracker::Options SmallOptions(double half_life = 1000.0) {
  HotVideoTracker::Options o;
  o.top_k = 5;
  o.half_life_millis = half_life;
  return o;
}

TEST(HotVideoTrackerTest, RanksByAccumulatedWeight) {
  HotVideoTracker tracker(SmallOptions());
  tracker.Record(0, 1, 1.0, 0);
  tracker.Record(0, 2, 1.0, 0);
  tracker.Record(0, 2, 1.0, 0);
  tracker.Record(0, 3, 1.0, 0);
  tracker.Record(0, 2, 1.0, 0);
  const auto hot = tracker.Hottest(0, 10, 0);
  ASSERT_GE(hot.size(), 3u);
  EXPECT_EQ(hot[0].video, 2u);
  EXPECT_NEAR(hot[0].score, 3.0, 1e-9);
}

TEST(HotVideoTrackerTest, GroupsAreIsolated) {
  HotVideoTracker tracker(SmallOptions());
  tracker.Record(0, 1, 5.0, 0);
  tracker.Record(1, 2, 1.0, 0);
  const auto group0 = tracker.Hottest(0, 10, 0);
  const auto group1 = tracker.Hottest(1, 10, 0);
  ASSERT_EQ(group0.size(), 1u);
  ASSERT_EQ(group1.size(), 1u);
  EXPECT_EQ(group0[0].video, 1u);
  EXPECT_EQ(group1[0].video, 2u);
}

TEST(HotVideoTrackerTest, UnknownGroupIsEmpty) {
  HotVideoTracker tracker(SmallOptions());
  EXPECT_TRUE(tracker.Hottest(9, 10, 0).empty());
}

TEST(HotVideoTrackerTest, RecentHitsOutweighOldOnes) {
  HotVideoTracker tracker(SmallOptions(1000.0));
  // Video 1: three hits at t=0. Video 2: two hits at t=3000 (3 half-
  // lives later): decayed weight of video 1 = 3/8 < 2.
  tracker.Record(0, 1, 1.0, 0);
  tracker.Record(0, 1, 1.0, 0);
  tracker.Record(0, 1, 1.0, 0);
  tracker.Record(0, 2, 1.0, 3000);
  tracker.Record(0, 2, 1.0, 3000);
  const auto hot = tracker.Hottest(0, 10, 3000);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].video, 2u);
  EXPECT_NEAR(hot[0].score, 2.0, 1e-6);
  EXPECT_NEAR(hot[1].score, 3.0 / 8.0, 1e-6);
}

TEST(HotVideoTrackerTest, TopKBoundsListLength) {
  HotVideoTracker tracker(SmallOptions());
  for (VideoId v = 1; v <= 20; ++v) {
    tracker.Record(0, v, static_cast<double>(v), 0);
  }
  const auto hot = tracker.Hottest(0, 100, 0);
  EXPECT_EQ(hot.size(), 5u);  // top_k = 5.
  EXPECT_EQ(hot[0].video, 20u);
}

TEST(HotVideoTrackerTest, ZeroWeightIgnored) {
  HotVideoTracker tracker(SmallOptions());
  tracker.Record(0, 1, 0.0, 0);
  EXPECT_TRUE(tracker.Hottest(0, 10, 0).empty());
}

TEST(HotVideoTrackerTest, NRequestTruncates) {
  HotVideoTracker tracker(SmallOptions());
  for (VideoId v = 1; v <= 5; ++v) tracker.Record(0, v, 1.0, 0);
  EXPECT_EQ(tracker.Hottest(0, 2, 0).size(), 2u);
}

// 2^(t/half_life) overflows a double past 1024 half-lives; with the
// default one-day half-life that is under three years of clock, and
// epoch milliseconds are ~20k half-lives in. Scores must stay finite and
// ordered by weight at any clock, including after the landmark moves
// several times within one tracker.
TEST(HotVideoTrackerTest, RealClocksGiveFiniteScoresInWeightOrder) {
  HotVideoTracker tracker;  // Default one-day half-life.
  for (const Timestamp now :
       {Timestamp{0}, 1100 * kMillisPerDay, Timestamp{1'760'000'000'000}}) {
    tracker.Record(0, 1, 1.0, now);
    tracker.Record(0, 2, 3.0, now);
    tracker.Record(0, 3, 2.0, now);
    const auto hot = tracker.Hottest(0, 10, now);
    ASSERT_EQ(hot.size(), 3u) << "now=" << now;
    EXPECT_EQ(hot[0].video, 2u) << "now=" << now;
    EXPECT_EQ(hot[1].video, 3u) << "now=" << now;
    EXPECT_EQ(hot[2].video, 1u) << "now=" << now;
    for (const ScoredVideo& s : hot) {
      EXPECT_TRUE(std::isfinite(s.score)) << "now=" << now;
    }
    // Earlier hits have decayed to nothing; the fresh ones are exact.
    EXPECT_NEAR(hot[0].score, 3.0, 1e-9) << "now=" << now;
    EXPECT_NEAR(hot[2].score, 1.0, 1e-9) << "now=" << now;
  }
  // Half a half-life past an epoch-ms landmark the decay still applies.
  const auto later =
      tracker.Hottest(0, 10, 1'760'000'000'000 + kMillisPerDay / 2);
  ASSERT_EQ(later.size(), 3u);
  EXPECT_NEAR(later[0].score, 3.0 / std::sqrt(2.0), 1e-9);
}

// A `now` far behind the landmark, such as a simulation clock asking a
// tracker fed epoch milliseconds, reads the scores as of the landmark:
// 2^age underflows to 0 past 1024 half-lives, so dividing by it would
// return inf.
TEST(HotVideoTrackerTest, ClockFarBehindTheLandmarkGivesFiniteScores) {
  HotVideoTracker tracker;  // Default one-day half-life.
  const Timestamp epoch_ms = 1'760'000'000'000;
  tracker.Record(0, 1, 1.0, epoch_ms);
  tracker.Record(0, 2, 3.0, epoch_ms);
  const auto hot = tracker.Hottest(0, 10, /*now=*/0);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].video, 2u);
  EXPECT_EQ(hot[1].video, 1u);
  for (const ScoredVideo& s : hot) EXPECT_TRUE(std::isfinite(s.score));
  EXPECT_GT(hot[0].score, hot[1].score);
}

TEST(HotVideoTrackerTest, HotPageDropsSeedsAndFallsBackToGlobal) {
  HotVideoTracker tracker(SmallOptions());
  for (VideoId v = 1; v <= 4; ++v) {
    tracker.Record(kGlobalGroup, v, static_cast<double>(v), 0);
  }
  tracker.Record(3, 9, 1.0, 0);  // Group 3's only hot video.

  // Seeds leave the page, which still holds n videos.
  const auto page = tracker.HotPage(kGlobalGroup, 2, 0, {4});
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].video, 3u);
  EXPECT_EQ(page[1].video, 2u);

  EXPECT_EQ(tracker.HotPage(3, 2, 0, {})[0].video, 9u);
  // A group whose whole list is seeds, or that has no list, gets the
  // global page.
  for (const GroupId group : {GroupId{3}, GroupId{7}}) {
    const auto fallback = tracker.HotPage(group, 2, 0, {9});
    ASSERT_EQ(fallback.size(), 2u) << "group " << group;
    EXPECT_EQ(fallback[0].video, 4u);
  }
}

}  // namespace
}  // namespace rtrec
