#include "core/online_mf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/vec_math.h"

namespace rtrec {
namespace {

MfModelConfig SmallConfig(UpdatePolicy policy = UpdatePolicy::kCombine) {
  // Mechanics tests pin their own rates (production defaults are tuned
  // for week-long streams and would need thousands of updates here).
  MfModelConfig config;
  config.num_factors = 8;
  config.policy = policy;
  config.eta0 = 0.05;
  config.alpha = 0.02;
  config.seed = 3;
  return config;
}

FactorStore::Options StoreOptions(const MfModelConfig& config) {
  FactorStore::Options o;
  o.num_factors = config.num_factors;
  o.init_scale = config.init_scale;
  o.seed = config.seed;
  return o;
}

UserAction Play(UserId u, VideoId v, double fraction, Timestamp t = 0) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kPlayTime;
  a.view_fraction = fraction;
  a.time = t;
  return a;
}

UserAction Impress(UserId u, VideoId v, Timestamp t = 0) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kImpress;
  a.time = t;
  return a;
}

class OnlineMfTest : public ::testing::Test {
 protected:
  void Init(UpdatePolicy policy) {
    config_ = SmallConfig(policy);
    store_ = std::make_unique<FactorStore>(StoreOptions(config_));
    model_ = std::make_unique<OnlineMf>(store_.get(), config_);
  }

  MfModelConfig config_;
  std::unique_ptr<FactorStore> store_;
  std::unique_ptr<OnlineMf> model_;
};

TEST_F(OnlineMfTest, ImpressionDoesNotUpdateModel) {
  Init(UpdatePolicy::kCombine);
  const auto result = model_->Update(Impress(1, 2));
  EXPECT_FALSE(result.updated);
  EXPECT_EQ(result.rating, 0.0);
  EXPECT_EQ(store_->NumUsers(), 0u);
  EXPECT_EQ(store_->NumVideos(), 0u);
}

TEST_F(OnlineMfTest, EngagedActionCreatesEntriesAndUpdates) {
  Init(UpdatePolicy::kCombine);
  const auto result = model_->Update(Play(1, 2, 0.9));
  EXPECT_TRUE(result.updated);
  EXPECT_EQ(result.rating, 1.0);
  EXPECT_GT(result.confidence, 0.0);
  EXPECT_EQ(store_->NumUsers(), 1u);
  EXPECT_EQ(store_->NumVideos(), 1u);
}

TEST_F(OnlineMfTest, RepeatedActionShrinksError) {
  Init(UpdatePolicy::kCombine);
  double first_error = 0.0;
  double last_error = 0.0;
  for (int i = 0; i < 50; ++i) {
    const auto result = model_->Update(Play(1, 2, 1.0));
    if (i == 0) first_error = std::abs(result.error);
    last_error = std::abs(result.error);
  }
  EXPECT_LT(last_error, first_error);
  EXPECT_LT(last_error, 0.2);
}

TEST_F(OnlineMfTest, PredictionApproachesRatingAfterTraining) {
  Init(UpdatePolicy::kCombine);
  for (int i = 0; i < 100; ++i) model_->Update(Play(1, 2, 1.0));
  EXPECT_NEAR(model_->Predict(1, 2), 1.0, 0.2);
}

TEST_F(OnlineMfTest, CombinePolicyScalesLearningRateWithConfidence) {
  Init(UpdatePolicy::kCombine);
  const auto strong = model_->Update(Play(1, 2, 1.0));   // w = 2.5
  const auto weak = model_->Update(Play(3, 4, 0.1));     // w = 1.5
  EXPECT_GT(strong.learning_rate, weak.learning_rate);
  EXPECT_NEAR(strong.learning_rate,
              config_.eta0 + config_.alpha * strong.confidence, 1e-12);
  EXPECT_NEAR(weak.learning_rate,
              config_.eta0 + config_.alpha * weak.confidence, 1e-12);
}

TEST_F(OnlineMfTest, BinaryPolicyUsesFixedRate) {
  Init(UpdatePolicy::kBinary);
  const auto strong = model_->Update(Play(1, 2, 1.0));
  const auto weak = model_->Update(Play(3, 4, 0.1));
  EXPECT_DOUBLE_EQ(strong.learning_rate, config_.eta0);
  EXPECT_DOUBLE_EQ(weak.learning_rate, config_.eta0);
  EXPECT_EQ(strong.rating, 1.0);
}

TEST_F(OnlineMfTest, ConfPolicyUsesWeightAsRating) {
  Init(UpdatePolicy::kConfidenceAsRating);
  const auto result = model_->Update(Play(1, 2, 1.0));
  EXPECT_DOUBLE_EQ(result.rating, result.confidence);
  EXPECT_GT(result.rating, 1.0);  // PlayTime weight, not binary.
  EXPECT_DOUBLE_EQ(result.learning_rate, config_.eta0);
}

TEST_F(OnlineMfTest, PredictUnknownIdsIsFinite) {
  Init(UpdatePolicy::kCombine);
  const double p = model_->Predict(999, 888);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_NEAR(p, 0.0, 0.2);  // Near-zero from random init dot products.
}

TEST_F(OnlineMfTest, TrainingSeparatesLikedFromUntouched) {
  Init(UpdatePolicy::kCombine);
  // User 1 repeatedly watches video 2; never touches video 50.
  for (int i = 0; i < 80; ++i) model_->Update(Play(1, 2, 1.0));
  EXPECT_GT(model_->Predict(1, 2), model_->Predict(1, 50));
}

TEST_F(OnlineMfTest, CollaborativeTransferAcrossUsers) {
  Init(UpdatePolicy::kCombine);
  // Users 1 and 2 co-watch videos 10 and 11; user 3 watches only 20.
  Rng rng(5);
  for (int round = 0; round < 120; ++round) {
    model_->Update(Play(1, 10, 1.0, round));
    model_->Update(Play(1, 11, 1.0, round));
    model_->Update(Play(2, 10, 1.0, round));
    model_->Update(Play(2, 11, 1.0, round));
    model_->Update(Play(3, 20, 1.0, round));
  }
  // Latent vectors of co-watched 10 and 11 align more than 10 and 20.
  const FactorEntry y10 = store_->GetOrInitVideo(10);
  const FactorEntry y11 = store_->GetOrInitVideo(11);
  const FactorEntry y20 = store_->GetOrInitVideo(20);
  EXPECT_GT(CosineSimilarity(y10.vec, y11.vec),
            CosineSimilarity(y10.vec, y20.vec));
}

TEST_F(OnlineMfTest, ApplySgdStepMatchesManualComputation) {
  Init(UpdatePolicy::kBinary);
  FactorEntry user;
  user.vec = {0.1f, -0.2f};
  user.bias = 0.05f;
  FactorEntry video;
  video.vec = {0.3f, 0.4f};
  video.bias = -0.1f;

  const double rating = 1.0, eta = 0.1, lambda = 0.01;
  const double expected_error =
      rating - 0.05 - (-0.1) - (0.1 * 0.3 + (-0.2) * 0.4);

  FactorEntry u2 = user, v2 = video;
  const double error = OnlineMf::ApplySgdStep(u2, v2, rating, eta, lambda);
  EXPECT_NEAR(error, expected_error, 1e-6);

  // Bias update: b += eta * (e - lambda * b).
  EXPECT_NEAR(u2.bias, 0.05 + eta * (error - lambda * 0.05), 1e-6);
  EXPECT_NEAR(v2.bias, -0.1 + eta * (error - lambda * -0.1), 1e-6);
  // Vector update uses the *other* side's old vector (corrected Eq. 5).
  EXPECT_NEAR(u2.vec[0], 0.1 + eta * (error * 0.3 - lambda * 0.1), 1e-6);
  EXPECT_NEAR(v2.vec[0], 0.3 + eta * (error * 0.1 - lambda * 0.3), 1e-6);
}

TEST_F(OnlineMfTest, RegularizationPullsTowardZero) {
  // With rating exactly matched (error 0), weights should shrink.
  FactorEntry user;
  user.vec = {1.0f};
  user.bias = 0.0f;
  FactorEntry video;
  video.vec = {1.0f};
  video.bias = 0.0f;
  // rating = dot = 1 -> error 0.
  OnlineMf::ApplySgdStep(user, video, 1.0, 0.1, 0.5);
  EXPECT_LT(user.vec[0], 1.0f);
  EXPECT_LT(video.vec[0], 1.0f);
}

// Policy sweep: every policy must learn the planted preference.
class PolicyParamTest : public ::testing::TestWithParam<UpdatePolicy> {};

TEST_P(PolicyParamTest, LearnsPlantedPreference) {
  MfModelConfig config = SmallConfig(GetParam());
  FactorStore store(StoreOptions(config));
  OnlineMf model(&store, config);
  for (int i = 0; i < 100; ++i) {
    model.Update(Play(1, 2, 1.0, i));
    model.Update(Play(3, 4, 1.0, i));
  }
  EXPECT_GT(model.Predict(1, 2), model.Predict(1, 77));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyParamTest,
                         ::testing::Values(
                             UpdatePolicy::kBinary,
                             UpdatePolicy::kConfidenceAsRating,
                             UpdatePolicy::kCombine));

TEST(MfModelConfigTest, ValidationCatchesBadValues) {
  MfModelConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_factors = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MfModelConfig{};
  config.eta0 = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = MfModelConfig{};
  config.eta0 = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = MfModelConfig{};
  config.lambda = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config = MfModelConfig{};
  config.alpha = -1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(UpdatePolicyTest, NamesMatchPaper) {
  EXPECT_STREQ(UpdatePolicyToString(UpdatePolicy::kBinary), "BinaryModel");
  EXPECT_STREQ(UpdatePolicyToString(UpdatePolicy::kConfidenceAsRating),
               "ConfModel");
  EXPECT_STREQ(UpdatePolicyToString(UpdatePolicy::kCombine), "CombineModel");
}

}  // namespace
}  // namespace rtrec
