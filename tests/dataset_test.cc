#include "data/dataset.h"

#include <gtest/gtest.h>

namespace rtrec {
namespace {

UserAction Play(UserId u, VideoId v, Timestamp t) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kPlayTime;
  a.view_fraction = 1.0;
  a.time = t;
  return a;
}

UserAction Impress(UserId u, VideoId v, Timestamp t) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kImpress;
  a.time = t;
  return a;
}

TEST(DatasetTest, SortsOnConstruction) {
  Dataset data({Play(1, 1, 300), Play(1, 2, 100), Play(1, 3, 200)});
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data.actions()[0].time, 100);
  EXPECT_EQ(data.actions()[2].time, 300);
}

TEST(DatasetTest, SplitAtTimePartitionsChronologically) {
  Dataset data({Play(1, 1, 100), Play(1, 2, 200), Play(1, 3, 300)});
  const auto [train, test] = data.SplitAtTime(250);
  EXPECT_EQ(train.size(), 2u);
  EXPECT_EQ(test.size(), 1u);
  EXPECT_EQ(test.actions()[0].video, 3u);
}

TEST(DatasetTest, FilterMinActivityDropsLightUsers) {
  std::vector<UserAction> actions;
  // User 1: 5 engaged actions; user 2: 1.
  for (int i = 0; i < 5; ++i) {
    actions.push_back(Play(1, static_cast<VideoId>(i % 2 + 1), i * 100));
  }
  actions.push_back(Play(2, 1, 1000));
  Dataset data(std::move(actions));
  const Dataset filtered = data.FilterMinActivity(3, 1);
  for (const UserAction& a : filtered.actions()) {
    EXPECT_EQ(a.user, 1u);
  }
  EXPECT_EQ(filtered.size(), 5u);
}

TEST(DatasetTest, FilterMinActivityDropsColdVideos) {
  std::vector<UserAction> actions;
  for (UserId u = 1; u <= 4; ++u) {
    actions.push_back(Play(u, 1, u * 100));        // Video 1: 4 actions.
    actions.push_back(Play(u, 100 + u, u * 200));  // Unique cold videos.
  }
  Dataset data(std::move(actions));
  const Dataset filtered = data.FilterMinActivity(1, 3);
  for (const UserAction& a : filtered.actions()) {
    EXPECT_EQ(a.video, 1u);
  }
}

TEST(DatasetTest, OnePassFilterDoesNotCascade) {
  // u1, u2 watch {A, B}; u3 watches {B, C}. Floors: user >= 2, video >= 2.
  // The single pass (users first, then videos) keeps all users, then
  // drops video C (1 action) — leaving u3 with one surviving action,
  // *below* the user floor, but the pass is over (the paper's one-pass
  // rule, not a fixpoint).
  std::vector<UserAction> actions = {
      Play(1, 100, 10), Play(1, 200, 20), Play(2, 100, 30),
      Play(2, 200, 40), Play(3, 200, 50), Play(3, 300, 60)};
  Dataset data(std::move(actions));
  const Dataset one_pass = data.FilterMinActivity(2, 2);
  EXPECT_EQ(one_pass.size(), 5u);  // u3's video-200 action survives.
  for (const UserAction& a : one_pass.actions()) {
    EXPECT_NE(a.video, 300u);
  }
}

TEST(DatasetTest, ImpressionsDoNotCountAsActivity) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 10; ++i) {
    actions.push_back(Impress(1, 1, i * 10));
  }
  actions.push_back(Play(2, 2, 1000));
  Dataset data(std::move(actions));
  const Dataset filtered = data.FilterMinActivity(2, 1);
  // User 1 has 0 engaged actions: everything of theirs is dropped; user 2
  // has only 1: dropped too.
  EXPECT_TRUE(filtered.empty());
}

TEST(DatasetTest, StatsCountEngagedOnly) {
  Dataset data({Play(1, 1, 100), Play(1, 2, 200), Play(2, 1, 300),
                Impress(3, 3, 400)});
  const DatasetStats stats = data.Stats(FeedbackConfig{});
  EXPECT_EQ(stats.num_users, 2u);
  EXPECT_EQ(stats.num_videos, 2u);
  EXPECT_EQ(stats.num_actions, 3u);
  // Sparsity: 3 / (2 * 2) = 75%.
  EXPECT_NEAR(stats.sparsity_percent, 75.0, 1e-9);
}

TEST(DatasetTest, EmptyStatsAreZero) {
  const DatasetStats stats = Dataset{}.Stats(FeedbackConfig{});
  EXPECT_EQ(stats.num_users, 0u);
  EXPECT_DOUBLE_EQ(stats.sparsity_percent, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(DatasetTest, FilterGroupUsesGrouper) {
  DemographicGrouper grouper;
  UserProfile profile;
  profile.registered = true;
  profile.gender = Gender::kMale;
  profile.age = AgeBucket::k18To24;
  grouper.RegisterProfile(1, profile);
  const GroupId group = DemographicGrouper::GroupFor(profile);

  Dataset data({Play(1, 1, 100), Play(2, 1, 200)});
  const Dataset in_group = data.FilterGroup(grouper, group);
  EXPECT_EQ(in_group.size(), 1u);
  EXPECT_EQ(in_group.actions()[0].user, 1u);
  const Dataset global = data.FilterGroup(grouper, kGlobalGroup);
  EXPECT_EQ(global.size(), 1u);
  EXPECT_EQ(global.actions()[0].user, 2u);
}

}  // namespace
}  // namespace rtrec
