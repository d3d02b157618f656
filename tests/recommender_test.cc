#include "core/recommender.h"

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"

namespace rtrec {
namespace {

UserAction Play(UserId u, VideoId v, Timestamp t, double fraction = 1.0) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kPlayTime;
  a.view_fraction = fraction;
  a.time = t;
  return a;
}

RecEngine::Options SmallEngineOptions() {
  RecEngine::Options options;
  options.model.num_factors = 8;
  options.similarity.xi_millis = 1.0 * kMillisPerDay;
  options.recommend.top_n = 5;
  return options;
}

VideoTypeResolver TwoTypes() {
  return [](VideoId v) -> VideoType { return v % 2; };
}

class MfRecommenderTest : public ::testing::Test {
 protected:
  MfRecommenderTest() : engine_(TwoTypes(), SmallEngineOptions()) {}

  /// Builds co-watch structure: users 1..8 watch a clique of videos
  /// {10, 12, 14}; users 21..24 watch {31, 33}.
  void TrainCliques() {
    Timestamp t = 1000;
    for (int round = 0; round < 20; ++round) {
      for (UserId u = 1; u <= 8; ++u) {
        for (VideoId v : {10, 12, 14}) {
          engine_.Observe(Play(u, v, t));
          t += 1000;
        }
      }
      for (UserId u = 21; u <= 24; ++u) {
        for (VideoId v : {31, 33}) {
          engine_.Observe(Play(u, v, t));
          t += 1000;
        }
      }
    }
    now_ = t;
  }

  RecEngine engine_;
  Timestamp now_ = 0;
};

TEST_F(MfRecommenderTest, ColdUserWithoutSeedsGetsEmptyList) {
  RecRequest request;
  request.user = 777;
  request.now = 0;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
}

TEST_F(MfRecommenderTest, RelatedVideosFromExplicitSeed) {
  TrainCliques();
  // "Related videos" scenario (Fig. 6b): seed = video being watched.
  RecRequest request;
  request.user = 99;  // Brand-new user; candidates come from the seed.
  request.seed_videos = {10};
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  // The co-watched clique videos surface.
  std::vector<VideoId> ids;
  for (const auto& r : *recs) ids.push_back(r.video);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 12) != ids.end() ||
              std::find(ids.begin(), ids.end(), 14) != ids.end());
  // The other clique's videos do not.
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 31) == ids.end());
}

TEST_F(MfRecommenderTest, GuessYouLikeUsesHistorySeeds) {
  TrainCliques();
  // User 1 has history; no explicit seeds ("guess you like", Fig. 6a).
  // History is never excluded, so clique favourites resurface.
  RecRequest request;
  request.user = 1;
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_FALSE(recs->empty());
  for (const auto& r : *recs) {
    EXPECT_TRUE(r.video == 10 || r.video == 12 || r.video == 14) << r.video;
  }
}

TEST_F(MfRecommenderTest, ExplicitSeedNeverRecommendedBack) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  for (const auto& r : *recs) {
    EXPECT_NE(r.video, 10u);
  }
}

TEST_F(MfRecommenderTest, ResultsSortedByScore) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  for (std::size_t i = 1; i < recs->size(); ++i) {
    EXPECT_GE((*recs)[i - 1].score, (*recs)[i].score);
  }
}

TEST_F(MfRecommenderTest, TopNOverrideRespected) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.top_n = 1;
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_LE(recs->size(), 1u);
}

TEST_F(MfRecommenderTest, DeterministicForIdenticalState) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.now = now_;
  auto a = engine_.Recommend(request);
  auto b = engine_.Recommend(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(MfRecommenderTest, StaleSimilaritiesFadeFromCandidates) {
  TrainCliques();
  // Far in the future, similarity entries have fully decayed (ξ = 1 day).
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.now = now_ + 60 * kMillisPerDay;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
}

TEST_F(MfRecommenderTest, DuplicateSeedsDoNotDuplicateResults) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10, 10, 10};
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  std::set<VideoId> seen;
  for (const auto& r : *recs) {
    EXPECT_TRUE(seen.insert(r.video).second) << "duplicate " << r.video;
  }
}

TEST_F(MfRecommenderTest, UnknownSeedYieldsEmptyNotError) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {987654};  // Never seen by anyone.
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
}

TEST_F(MfRecommenderTest, HugeTopNReturnsWhatExists) {
  TrainCliques();
  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.top_n = 100000;
  request.now = now_;
  auto recs = engine_.Recommend(request);
  ASSERT_TRUE(recs.ok());
  EXPECT_LE(recs->size(), 5u);  // Bounded by actual candidates.
}

TEST(MfRecommenderServingTest, ObserveBetweenRequestsRescoresCandidate) {
  // Recommend reads every candidate's vector from the store, so a write
  // to one candidate between two requests shows in its next score.
  RecEngine::Options options;
  options.model.num_factors = 8;
  RecEngine engine([](VideoId) -> VideoType { return 0; }, options);
  Timestamp t = 1000;
  for (int round = 0; round < 10; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      for (VideoId v : {10, 12, 14, 16}) {
        engine.Observe(Play(u, v, t));
        t += 1000;
      }
    }
  }
  RecRequest request;
  request.user = 3;
  request.seed_videos = {10};
  request.now = t;
  auto score_of = [&engine, &request](VideoId video) {
    auto recs = engine.Recommend(request);
    if (!recs.ok()) {
      ADD_FAILURE() << recs.status().ToString();
      return 0.0;
    }
    for (const ScoredVideo& r : *recs) {
      if (r.video == video) return r.score;
    }
    ADD_FAILURE() << "video " << video << " not recommended";
    return 0.0;
  };
  const double before = score_of(12);

  // User 7 has no history, so the play rewrites video 12's entry (and
  // user 7's) without touching user 3 or the similar-video tables.
  engine.Observe(Play(7, 12, t));
  const double after = score_of(12);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, engine.model().Predict(3, 12));
}

TEST(CandidateExpansionTest, OneHopDoesNotReachChainNeighbors) {
  // Similar-video chain 10—11—12 with no direct (10, 12) co-watch.
  // Candidates come one hop from each seed (Section 5.2.1 rejects the
  // YouTube-style transitive closure), so seed 10 reaches 11 but not 12.
  RecEngine::Options options;
  options.model.num_factors = 8;
  options.model.eta0 = 0.05;
  options.recommend.top_n = 10;
  RecEngine engine([](VideoId) -> VideoType { return 0; }, options);
  Timestamp t = 0;
  for (int round = 0; round < 15; ++round) {
    for (UserId u = 1; u <= 4; ++u) {  // Co-watch 10 and 11.
      engine.Observe(Play(u, 10, t += 1000));
      engine.Observe(Play(u, 11, t += 1000));
    }
    for (UserId u = 11; u <= 14; ++u) {  // Co-watch 11 and 12.
      engine.Observe(Play(u, 11, t += 1000));
      engine.Observe(Play(u, 12, t += 1000));
    }
  }
  RecRequest request;
  request.user = 999;
  request.seed_videos = {10};
  request.now = t;
  auto recs = engine.Recommend(request);
  ASSERT_TRUE(recs.ok());
  bool found_11 = false;
  bool found_12 = false;
  for (const auto& r : *recs) {
    found_11 |= (r.video == 11);
    found_12 |= (r.video == 12);
  }
  EXPECT_TRUE(found_11);
  EXPECT_FALSE(found_12) << "one-hop expansion must not reach video 12";
}

TEST(RecEngineOptionsTest, ValidationCascades) {
  RecEngine::Options options;
  EXPECT_TRUE(options.Validate().ok());
  options.history_per_user = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = RecEngine::Options{};
  options.model.num_factors = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = RecEngine::Options{};
  options.similarity.beta = 2.0;
  EXPECT_FALSE(options.Validate().ok());
  options = RecEngine::Options{};
  options.recommend.top_n = 0;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace rtrec
