#include "baselines/reservoir_mf.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

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

ReservoirMfRecommender::Options SmallOptions(std::size_t reservoir = 64,
                                             std::size_t replay = 2) {
  ReservoirMfRecommender::Options options;
  options.reservoir_size = reservoir;
  options.replay_per_action = replay;
  options.engine.model.num_factors = 8;
  options.engine.model.eta0 = 0.05;
  return options;
}

VideoTypeResolver OneType() {
  return [](VideoId) -> VideoType { return 0; };
}

TEST(ReservoirMfTest, ReservoirFillsThenSaturates) {
  ReservoirMfRecommender model(OneType(), SmallOptions(16));
  for (int i = 0; i < 10; ++i) {
    model.Observe(Play(1, static_cast<VideoId>(i + 1), i));
  }
  EXPECT_EQ(model.ReservoirSize(), 10u);
  EXPECT_EQ(model.ActionsSeen(), 10u);
  for (int i = 10; i < 100; ++i) {
    model.Observe(Play(1, static_cast<VideoId>(i + 1), i));
  }
  EXPECT_EQ(model.ReservoirSize(), 16u);  // Capacity bound.
  EXPECT_EQ(model.ActionsSeen(), 100u);
}

TEST(ReservoirMfTest, ImpressionsNeitherTrainNorSample) {
  ReservoirMfRecommender model(OneType(), SmallOptions());
  UserAction impress;
  impress.user = 1;
  impress.video = 10;
  impress.type = ActionType::kImpress;
  model.Observe(impress);
  // Impressions are offered to the reservoir (they are stream elements)
  // but never train; the engine stays empty.
  EXPECT_EQ(model.engine().factors().NumUsers(), 0u);
}

TEST(ReservoirMfTest, ServesLikeAnMfEngine) {
  ReservoirMfRecommender model(OneType(), SmallOptions());
  Timestamp t = 0;
  for (int round = 0; round < 25; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      model.Observe(Play(u, 10, t += 100));
      model.Observe(Play(u, 11, t += 100));
    }
  }
  RecRequest request;
  request.user = 42;
  request.seed_videos = {10};
  request.now = t;
  auto recs = model.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 11u);
  EXPECT_EQ(model.name(), "ReservoirMF");
}

/// Counts the SGD steps a model takes: the hook sees one sample per
/// training action, and an impression's sample has rating 0.
class StepCounter : public MfValidationHook {
 public:
  void OnMfSample(const MfSample& sample) override {
    if (sample.rating > 0.0) steps_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t steps() const { return steps_.load(); }

 private:
  std::atomic<std::uint64_t> steps_{0};
};

TEST(ReservoirMfTest, ReplayIncreasesTrainingVolume) {
  // With replay_per_action = 4, the model applies ~5x the SGD steps of
  // the single-pass strategy; a validation hook counts them.
  StepCounter replayed_steps;
  StepCounter pure_steps;
  auto replayed_options = SmallOptions(64, 4);
  replayed_options.engine.validation_hook = &replayed_steps;
  auto pure_options = SmallOptions(64, 0);
  pure_options.engine.validation_hook = &pure_steps;
  ReservoirMfRecommender replayed(OneType(), replayed_options);
  ReservoirMfRecommender pure(OneType(), pure_options);
  Timestamp t = 0;
  for (int i = 0; i < 50; ++i) {
    const UserAction a = Play(1 + i % 5, 1 + i % 7, t += 100);
    replayed.Observe(a);
    pure.Observe(a);
  }
  EXPECT_EQ(pure_steps.steps(), 50u);
  EXPECT_GT(replayed_steps.steps(), 200u);
}

TEST(ReservoirMfTest, ZeroReplayMatchesPureOnlineTrajectory) {
  // replay_per_action = 0 must degenerate to the paper's single-pass
  // strategy exactly.
  auto options = SmallOptions(64, 0);
  ReservoirMfRecommender reservoir(OneType(), options);
  RecEngine pure(OneType(), options.engine);
  Timestamp t = 0;
  for (int i = 0; i < 80; ++i) {
    const UserAction a = Play(1 + i % 5, 1 + i % 9, t += 100);
    reservoir.Observe(a);
    pure.Observe(a);
  }
  for (UserId u = 1; u <= 5; ++u) {
    for (VideoId v = 1; v <= 9; ++v) {
      EXPECT_DOUBLE_EQ(reservoir.engine().model().Predict(u, v),
                       pure.model().Predict(u, v));
    }
  }
}

}  // namespace
}  // namespace rtrec
