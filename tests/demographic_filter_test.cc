#include "demographic/demographic_filter.h"

#include <gtest/gtest.h>

#include <memory>

namespace rtrec {
namespace {

/// A scripted primary recommender for merge-behaviour tests.
class FakePrimary : public Recommender {
 public:
  explicit FakePrimary(std::vector<ScoredVideo> results)
      : results_(std::move(results)) {}

  StatusOr<std::vector<ScoredVideo>> Recommend(const RecRequest&) override {
    return results_;
  }
  void Observe(const UserAction& action) override {
    observed_.push_back(action);
  }
  std::string name() const override { return "fake"; }

  std::vector<UserAction> observed_;

 private:
  std::vector<ScoredVideo> results_;
};

std::vector<ScoredVideo> Videos(std::initializer_list<VideoId> ids) {
  std::vector<ScoredVideo> out;
  double score = 100.0;
  for (VideoId id : ids) out.push_back(ScoredVideo{id, score--});
  return out;
}

TEST(DemographicFilterMergeTest, BlendReservesHotSlots) {
  const auto merged = DemographicFilter::Merge(
      Videos({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), Videos({101, 102, 103}), 10,
      0.2);
  ASSERT_EQ(merged.size(), 10u);
  // 8 primary + 2 hot.
  EXPECT_EQ(merged[7].video, 8u);
  EXPECT_EQ(merged[8].video, 101u);
  EXPECT_EQ(merged[9].video, 102u);
}

TEST(DemographicFilterMergeTest, DedupesAcrossSources) {
  const auto merged = DemographicFilter::Merge(
      Videos({1, 2, 3, 4}), Videos({2, 5}), 5, 0.4);
  std::set<VideoId> seen;
  for (const auto& v : merged) {
    EXPECT_TRUE(seen.insert(v.video).second) << "duplicate " << v.video;
  }
}

TEST(DemographicFilterMergeTest, ShortHotListFilledFromPrimary) {
  const auto merged = DemographicFilter::Merge(
      Videos({1, 2, 3, 4, 5, 6}), Videos({}), 5, 0.4);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[4].video, 5u);  // Primary overflow fills hot slots.
}

TEST(DemographicFilterMergeTest, FullBlendIsAllHot) {
  const auto merged = DemographicFilter::Merge(
      Videos({1, 2}), Videos({10, 11, 12}), 3, 1.0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].video, 10u);
}

TEST(DemographicFilterMergeTest, EmptyBothIsEmpty) {
  EXPECT_TRUE(DemographicFilter::Merge({}, {}, 5, 0.5).empty());
}

class DemographicFilterTest : public ::testing::Test {
 protected:
  DemographicFilterTest() {
    HotVideoTracker::Options tracker_options;
    tracker_options.top_k = 20;
    tracker_options.half_life_millis = 1.0 * kMillisPerDay;
    tracker_ = std::make_unique<HotVideoTracker>(tracker_options);
    grouper_ = std::make_unique<DemographicGrouper>();
    UserProfile profile;
    profile.registered = true;
    profile.gender = Gender::kMale;
    profile.age = AgeBucket::k18To24;
    grouper_->RegisterProfile(1, profile);
    group_ = DemographicGrouper::GroupFor(profile);
  }

  DemographicFilter MakeFilter(Recommender* primary,
                               DemographicFilter::Options options = {}) {
    return DemographicFilter(primary, tracker_.get(), grouper_.get(),
                             options);
  }

  std::unique_ptr<HotVideoTracker> tracker_;
  std::unique_ptr<DemographicGrouper> grouper_;
  GroupId group_ = 0;
};

TEST_F(DemographicFilterTest, ColdUserFallsBackToGroupHot) {
  FakePrimary primary({});  // MF produced nothing.
  tracker_->Record(group_, 55, 5.0, 0);
  tracker_->Record(group_, 56, 3.0, 0);
  DemographicFilter filter = MakeFilter(&primary);
  RecRequest request;
  request.user = 1;
  request.now = 0;
  auto recs = filter.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].video, 55u);
}

TEST_F(DemographicFilterTest, UnregisteredColdUserGetsGlobalHot) {
  FakePrimary primary({});
  tracker_->Record(kGlobalGroup, 77, 4.0, 0);
  DemographicFilter filter = MakeFilter(&primary);
  RecRequest request;
  request.user = 999;  // No profile -> global group.
  request.now = 0;
  auto recs = filter.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].video, 77u);
}

TEST_F(DemographicFilterTest, EmptyGroupFallsBackToGlobalHot) {
  FakePrimary primary({});
  tracker_->Record(kGlobalGroup, 88, 4.0, 0);  // Group has no traffic.
  DemographicFilter filter = MakeFilter(&primary);
  RecRequest request;
  request.user = 1;  // Registered, but group list empty.
  request.now = 0;
  auto recs = filter.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].video, 88u);
}

TEST_F(DemographicFilterTest, WarmUserKeepsPrimaryOrderWithHotTail) {
  FakePrimary primary(Videos({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  tracker_->Record(group_, 55, 5.0, 0);
  DemographicFilter::Options options;
  options.blend_ratio = 0.2;
  options.top_n = 10;
  DemographicFilter filter = MakeFilter(&primary, options);
  RecRequest request;
  request.user = 1;
  request.now = 0;
  auto recs = filter.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 10u);
  EXPECT_EQ((*recs)[0].video, 1u);
  EXPECT_EQ((*recs)[8].video, 55u);  // Hot video injected.
}

TEST_F(DemographicFilterTest, HotBlendNeverEchoesTheSeed) {
  // The user is watching video 55, which is also the group's hottest
  // video. The blend must not hand it back; the next hot video takes
  // its slot.
  FakePrimary primary(Videos({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  tracker_->Record(group_, 55, 5.0, 0);
  tracker_->Record(group_, 56, 3.0, 0);
  tracker_->Record(group_, 57, 2.0, 0);
  DemographicFilter::Options options;
  options.blend_ratio = 0.2;
  options.top_n = 10;
  DemographicFilter filter = MakeFilter(&primary, options);
  RecRequest request;
  request.user = 1;
  request.now = 0;
  request.seed_videos = {55};
  auto recs = filter.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 10u);
  for (const ScoredVideo& v : *recs) EXPECT_NE(v.video, 55u);
  EXPECT_EQ((*recs)[8].video, 56u);
  EXPECT_EQ((*recs)[9].video, 57u);

  // Cold start fills the whole page from the hot list, seed still out.
  FakePrimary empty({});
  DemographicFilter cold = MakeFilter(&empty, options);
  auto cold_recs = cold.Recommend(request);
  ASSERT_TRUE(cold_recs.ok());
  ASSERT_EQ(cold_recs->size(), 2u);
  EXPECT_EQ((*cold_recs)[0].video, 56u);
}

TEST_F(DemographicFilterTest, ObserveFeedsPrimaryAndTrackers) {
  FakePrimary primary({});
  DemographicFilter filter = MakeFilter(&primary);
  UserAction action;
  action.user = 1;
  action.video = 10;
  action.type = ActionType::kPlay;
  action.time = 0;
  filter.Observe(action);
  EXPECT_EQ(primary.observed_.size(), 1u);
  EXPECT_FALSE(tracker_->Hottest(group_, 10, 0).empty());
  EXPECT_FALSE(tracker_->Hottest(kGlobalGroup, 10, 0).empty());
}

TEST_F(DemographicFilterTest, ImpressionsDoNotHeatVideos) {
  FakePrimary primary({});
  DemographicFilter filter = MakeFilter(&primary);
  UserAction action;
  action.user = 1;
  action.video = 10;
  action.type = ActionType::kImpress;
  action.time = 0;
  filter.Observe(action);
  EXPECT_TRUE(tracker_->Hottest(kGlobalGroup, 10, 0).empty());
  // Primary still sees it (it does its own filtering).
  EXPECT_EQ(primary.observed_.size(), 1u);
}

}  // namespace
}  // namespace rtrec
