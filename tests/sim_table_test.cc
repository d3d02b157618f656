#include "core/sim_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

namespace rtrec {
namespace {

class SimTableUpdaterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FactorStore::Options factor_options;
    factor_options.num_factors = 8;
    factors_ = std::make_unique<FactorStore>(factor_options);
    history_ = std::make_unique<HistoryStore>();
    SimTableStore::Options table_options;
    table_options.top_k = 10;
    table_options.xi_millis = 1000.0;
    table_ = std::make_unique<SimTableStore>(table_options);

    SimilarityConfig config;
    config.beta = 0.3;
    config.xi_millis = 1000.0;
    config.min_confidence = 1.0;
    config.max_pairs_per_action = 4;
    // Videos 1-10 are type 0, the rest type 1.
    updater_ = std::make_unique<SimTableUpdater>(
        factors_.get(), history_.get(), table_.get(),
        [](VideoId v) -> VideoType { return v <= 10 ? 0 : 1; }, config);
  }

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

  std::unique_ptr<FactorStore> factors_;
  std::unique_ptr<HistoryStore> history_;
  std::unique_ptr<SimTableStore> table_;
  std::unique_ptr<SimTableUpdater> updater_;
};

TEST_F(SimTableUpdaterTest, FirstActionHasNoPartners) {
  EXPECT_EQ(updater_->OnAction(Play(1, 5, 100)), 0u);
  EXPECT_EQ(table_->NumVideos(), 0u);
  // But the history was recorded.
  EXPECT_EQ(history_->Get(1).size(), 1u);
}

TEST_F(SimTableUpdaterTest, CoWatchCreatesPair) {
  updater_->OnAction(Play(1, 5, 100));
  EXPECT_EQ(updater_->OnAction(Play(1, 6, 200)), 1u);
  EXPECT_GT(table_->GetDecayedSimilarity(5, 6, 200), 0.0);
  EXPECT_GT(table_->GetDecayedSimilarity(6, 5, 200), 0.0);
}

TEST_F(SimTableUpdaterTest, ImpressionsNeverTouchTables) {
  updater_->OnAction(Play(1, 5, 100));
  EXPECT_EQ(updater_->OnAction(Impress(1, 6, 200)), 0u);
  EXPECT_EQ(table_->NumVideos(), 0u);
  // Impressions also stay out of history.
  EXPECT_EQ(history_->Get(1).size(), 1u);
}

TEST_F(SimTableUpdaterTest, RepeatedVideoDoesNotPairWithItself) {
  updater_->OnAction(Play(1, 5, 100));
  EXPECT_EQ(updater_->OnAction(Play(1, 5, 200)), 0u);
  EXPECT_DOUBLE_EQ(table_->GetDecayedSimilarity(5, 5, 200), 0.0);
}

TEST_F(SimTableUpdaterTest, PairsBoundedByConfig) {
  for (VideoId v = 1; v <= 8; ++v) {
    updater_->OnAction(Play(1, v, static_cast<Timestamp>(v) * 100));
  }
  // max_pairs_per_action = 4: the 9th video pairs with at most 4 partners.
  EXPECT_EQ(updater_->OnAction(Play(1, 9, 1000)), 4u);
}

TEST_F(SimTableUpdaterTest, SameTypePairsScoreHigherThanCrossType) {
  // Videos 5,6 share type 0; video 15 is type 1. Latent vectors are near
  // zero at init, so the type term dominates the fused similarity.
  updater_->OnAction(Play(1, 5, 100));
  updater_->OnAction(Play(1, 6, 200));
  updater_->OnAction(Play(2, 5, 100));
  updater_->OnAction(Play(2, 15, 200));
  const double same_type = table_->GetDecayedSimilarity(5, 6, 200);
  const double cross_type = table_->GetDecayedSimilarity(5, 15, 200);
  EXPECT_GT(same_type, cross_type);
}

TEST_F(SimTableUpdaterTest, RefreshPairUsesCurrentVectors) {
  // Plant identical vectors for 7 and 8 -> CF similarity = |y|^2 > 0.
  FactorEntry entry;
  entry.vec.assign(8, 0.5f);
  factors_->PutVideo(7, entry.vec, entry.bias);
  factors_->PutVideo(8, entry.vec, entry.bias);
  const double fused = updater_->RefreshPair(7, 8, 500);
  // s1 = 8 * 0.25 = 2.0, s2 = 1 (both type 0): fused = 0.7*2 + 0.3*1.
  EXPECT_NEAR(fused, 0.7 * 2.0 + 0.3, 1e-6);
  EXPECT_NEAR(table_->GetDecayedSimilarity(7, 8, 500), fused, 1e-9);
}

TEST(PairSimilarityTest, MatchesScoringVectorCopiesAtAnyWidth) {
  // One thread scores stores of different widths in turn: each result
  // equals Eq. 12 on CfSimilarity of the stores' own vector copies,
  // bit for bit, including for first-touch videos.
  SimilarityConfig config;
  config.beta = 0.3;
  const VideoTypeResolver types = [](VideoId v) -> VideoType {
    return v % 2 == 0 ? 0 : 1;
  };
  for (const int width : {8, 96, 8, 200}) {
    FactorStore::Options options;
    options.num_factors = width;
    options.seed = static_cast<std::uint64_t>(width);
    FactorStore factors(options);
    for (const auto& [a, b] : {std::pair<VideoId, VideoId>{1, 2}, {3, 5},
                               {2, 4}, {1, 5}}) {
      const double fused = PairSimilarity(factors, types, config, a, b);
      const FactorEntry ya = factors.GetOrInitVideo(a);
      const FactorEntry yb = factors.GetOrInitVideo(b);
      ASSERT_EQ(ya.vec.size(), static_cast<std::size_t>(width));
      EXPECT_EQ(fused, FuseSimilarity(CfSimilarity(ya.vec, yb.vec),
                                      TypeSimilarity(types(a), types(b)),
                                      config.beta))
          << "width " << width << " pair " << a << "," << b;
    }
  }
}

TEST_F(SimTableUpdaterTest, DifferentUsersHistoriesAreIndependent) {
  updater_->OnAction(Play(1, 5, 100));
  EXPECT_EQ(updater_->OnAction(Play(2, 6, 200)), 0u);
}

}  // namespace
}  // namespace rtrec
