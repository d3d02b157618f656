#include "demographic/demographic_trainer.h"

#include <gtest/gtest.h>

#include <memory>

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

class DemographicTrainerTest : public ::testing::Test {
 protected:
  DemographicTrainerTest() {
    grouper_ = std::make_unique<DemographicGrouper>();
    // Users 1-5: male 18-24; users 11-15: female 35-49; user 100
    // unregistered.
    UserProfile male;
    male.registered = true;
    male.gender = Gender::kMale;
    male.age = AgeBucket::k18To24;
    for (UserId u = 1; u <= 5; ++u) grouper_->RegisterProfile(u, male);
    male_group_ = DemographicGrouper::GroupFor(male);

    UserProfile female;
    female.registered = true;
    female.gender = Gender::kFemale;
    female.age = AgeBucket::k35To49;
    for (UserId u = 11; u <= 15; ++u) grouper_->RegisterProfile(u, female);
    female_group_ = DemographicGrouper::GroupFor(female);

    RecEngine::Options options;
    options.model.num_factors = 8;
    trainer_ = std::make_unique<DemographicTrainer>(
        grouper_.get(), [](VideoId) -> VideoType { return 0; }, options);
  }

  std::unique_ptr<DemographicGrouper> grouper_;
  std::unique_ptr<DemographicTrainer> trainer_;
  GroupId male_group_ = 0;
  GroupId female_group_ = 0;
};

TEST_F(DemographicTrainerTest, EnginesCreatedLazilyPerGroup) {
  EXPECT_TRUE(trainer_->ActiveGroups().empty());
  trainer_->Observe(Play(1, 10, 100));
  EXPECT_EQ(trainer_->ActiveGroups().size(), 1u);
  EXPECT_NE(trainer_->GetEngine(male_group_), nullptr);
  EXPECT_EQ(trainer_->GetEngine(female_group_), nullptr);
}

TEST_F(DemographicTrainerTest, ActionsRoutedToOwnGroupOnly) {
  trainer_->Observe(Play(1, 10, 100));   // Male group.
  trainer_->Observe(Play(11, 20, 100));  // Female group.
  RecEngine* male = trainer_->GetEngine(male_group_);
  RecEngine* female = trainer_->GetEngine(female_group_);
  ASSERT_NE(male, nullptr);
  ASSERT_NE(female, nullptr);
  EXPECT_EQ(male->factors().NumVideos(), 1u);
  EXPECT_TRUE(male->factors().GetVideo(20).status().IsNotFound());
  EXPECT_TRUE(female->factors().GetVideo(10).status().IsNotFound());
}

TEST_F(DemographicTrainerTest, SimilarityTablesStayWithinGroups) {
  for (int round = 0; round < 25; ++round) {
    const Timestamp t = round * 1000;
    for (UserId u = 1; u <= 5; ++u) {  // Male group co-watches 10 and 11.
      trainer_->Observe(Play(u, 10, t + u * 10));
      trainer_->Observe(Play(u, 11, t + u * 10 + 5));
    }
    for (UserId u = 11; u <= 15; ++u) {  // Female group: 20 and 21.
      trainer_->Observe(Play(u, 20, t + u * 10));
      trainer_->Observe(Play(u, 21, t + u * 10 + 5));
    }
  }
  const Timestamp now = 26000;
  RecEngine* male = trainer_->GetEngine(male_group_);
  RecEngine* female = trainer_->GetEngine(female_group_);
  ASSERT_NE(male, nullptr);
  ASSERT_NE(female, nullptr);
  EXPECT_GT(male->sim_table().GetDecayedSimilarity(10, 11, now), 0.0);
  EXPECT_DOUBLE_EQ(male->sim_table().GetDecayedSimilarity(20, 21, now), 0.0);
  EXPECT_GT(female->sim_table().GetDecayedSimilarity(20, 21, now), 0.0);
  EXPECT_DOUBLE_EQ(female->sim_table().GetDecayedSimilarity(10, 11, now),
                   0.0);
}

TEST_F(DemographicTrainerTest, GlobalEngineSeesEverything) {
  trainer_->Observe(Play(1, 10, 100));
  trainer_->Observe(Play(11, 20, 100));
  trainer_->Observe(Play(100, 30, 100));  // Unregistered.
  RecEngine* global = trainer_->GetEngine(kGlobalGroup);
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->factors().NumVideos(), 3u);
}

TEST_F(DemographicTrainerTest, UnregisteredUsersOnlyTrainGlobal) {
  trainer_->Observe(Play(100, 30, 100));
  EXPECT_TRUE(trainer_->ActiveGroups().empty());
  EXPECT_EQ(trainer_->GetEngine(kGlobalGroup)->factors().NumUsers(), 1u);
}

TEST_F(DemographicTrainerTest, RecommendServesFromGroupEngine) {
  Timestamp t = 0;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      trainer_->Observe(Play(u, 10, t += 100));
      trainer_->Observe(Play(u, 11, t += 100));
    }
  }
  RecRequest request;
  request.user = 1;
  request.seed_videos = {10};
  request.now = t;
  auto recs = trainer_->Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 11u);
}

TEST_F(DemographicTrainerTest, UnregisteredUserServedByGlobal) {
  Timestamp t = 0;
  for (int round = 0; round < 30; ++round) {
    trainer_->Observe(Play(100, 30, t += 100));
    trainer_->Observe(Play(100, 31, t += 100));
    trainer_->Observe(Play(101, 30, t += 100));
    trainer_->Observe(Play(101, 31, t += 100));
  }
  RecRequest request;
  request.user = 102;  // Unregistered, unknown — via global engine.
  request.seed_videos = {30};
  request.now = t;
  auto recs = trainer_->Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 31u);
}

TEST_F(DemographicTrainerTest, FallsBackToGlobalWhenGroupEmptyHanded) {
  // User 2's group engine exists but has never seen video 30; the global
  // engine (trained on the unregistered traffic) can still serve.
  Timestamp t = 0;
  trainer_->Observe(Play(1, 99, t += 100));  // Creates male group engine.
  for (int round = 0; round < 30; ++round) {
    trainer_->Observe(Play(100, 30, t += 100));
    trainer_->Observe(Play(100, 31, t += 100));
  }
  RecRequest request;
  request.user = 2;  // Male group.
  request.seed_videos = {30};
  request.now = t;
  auto recs = trainer_->Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
}

}  // namespace
}  // namespace rtrec
