/// Integration: every Recommender implementation runs through the full
/// offline-evaluation and A/B-test harnesses on a tiny world — the
/// RetrainBatch cadence, serving path, and metric plumbing must work for
/// each of them, and basic quality orderings must hold.

#include <gtest/gtest.h>

#include "baselines/assoc_rules.h"
#include "baselines/hot_recommender.h"
#include "baselines/item_cf.h"
#include "baselines/reservoir_mf.h"
#include "baselines/simhash_cf.h"
#include "core/engine.h"
#include "demographic/demographic_filter.h"
#include "demographic/demographic_trainer.h"
#include "eval/ab_test.h"
#include "eval/evaluator.h"
#include "eval/experiment_runner.h"

namespace rtrec {
namespace {

class BaselineEvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config = SmallWorldConfig(808);
    config.population.num_users = 200;
    config.catalog.num_videos = 200;
    world_ = new SyntheticWorld(config);
    Dataset all(world_->GenerateDays(0, 4));
    auto [train, test] = all.SplitAtTime(3 * kMillisPerDay);
    train_ = new Dataset(std::move(train));
    test_ = new Dataset(std::move(test));
  }
  static void TearDownTestSuite() {
    delete test_;
    delete train_;
    delete world_;
  }

  OfflineResult Evaluate(Recommender& model) {
    return OfflineEvaluator().Evaluate(model, *train_, *test_);
  }

  static SyntheticWorld* world_;
  static Dataset* train_;
  static Dataset* test_;
};

SyntheticWorld* BaselineEvaluationTest::world_ = nullptr;
Dataset* BaselineEvaluationTest::train_ = nullptr;
Dataset* BaselineEvaluationTest::test_ = nullptr;

TEST_F(BaselineEvaluationTest, EveryRecommenderSurvivesTheProtocol) {
  HotRecommender hot;
  AssociationRuleRecommender ar;
  SimHashCfRecommender simhash;
  ItemCfRecommender item_cf;
  RecEngine rmf(world_->TypeResolver(),
                DefaultEngineOptions(UpdatePolicy::kCombine));
  ReservoirMfRecommender::Options reservoir_options;
  reservoir_options.engine = DefaultEngineOptions(UpdatePolicy::kCombine);
  ReservoirMfRecommender reservoir(world_->TypeResolver(),
                                   reservoir_options);

  for (Recommender* model : std::initializer_list<Recommender*>{
           &hot, &ar, &simhash, &item_cf, &rmf, &reservoir}) {
    const OfflineResult result = Evaluate(*model);
    EXPECT_GE(result.recall(10), 0.0) << model->name();
    EXPECT_LE(result.recall(10), 1.0) << model->name();
    EXPECT_GE(result.avg_rank, 0.0) << model->name();
    EXPECT_LE(result.avg_rank, 1.0) << model->name();
  }
}

TEST_F(BaselineEvaluationTest, PersonalizedModelsBeatNothing) {
  // After training, AR and ItemCF (strong at small scale) and rMF must
  // produce strictly positive recall — they learned *something*.
  AssociationRuleRecommender ar;
  ItemCfRecommender item_cf;
  RecEngine rmf(world_->TypeResolver(),
                DefaultEngineOptions(UpdatePolicy::kCombine));
  EXPECT_GT(Evaluate(ar).recall(10), 0.0);
  EXPECT_GT(Evaluate(item_cf).recall(10), 0.0);
  EXPECT_GT(Evaluate(rmf).recall(10), 0.0);
}

TEST_F(BaselineEvaluationTest, DemographicStackRunsThroughAbHarness) {
  // The full production stack (per-group training + demographic
  // filtering) as one A/B arm against Hot.
  DemographicGrouper grouper;
  world_->RegisterProfiles(grouper);
  DemographicTrainer trainer(&grouper, world_->TypeResolver(),
                             DefaultEngineOptions(UpdatePolicy::kCombine));
  HotVideoTracker tracker;
  DemographicFilter::Options filter_options;
  DemographicFilter stack(&trainer, &tracker, &grouper, filter_options);

  HotRecommender hot;
  AbTestHarness::Options ab_options;
  ab_options.num_days = 2;
  ab_options.warmup_days = 1;
  ab_options.requests_per_user = 1;
  ab_options.top_n = 5;
  AbTestHarness harness(world_, ab_options);
  const auto results = harness.Run({&stack, &hot});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "rMF+DB");
  // The demographic stack always fills its list (hot fallback), so it
  // earns impressions for every slice user.
  EXPECT_GT(results[0].impressions, 0u);
  EXPECT_GT(results[1].impressions, 0u);
}

TEST_F(BaselineEvaluationTest, RetrainCadenceMattersForBatchModels) {
  // AR without any RetrainBatch call recommends nothing; with the daily
  // cadence it does — the offline/real-time contrast the paper draws.
  AssociationRuleRecommender no_retrain;
  OfflineEvaluator::Options options;
  options.retrain_daily = false;
  const OfflineResult result =
      OfflineEvaluator(options).Evaluate(no_retrain, *train_, *test_);
  EXPECT_DOUBLE_EQ(result.recall(10), 0.0);

  AssociationRuleRecommender with_retrain;
  const OfflineResult retrained = Evaluate(with_retrain);
  EXPECT_GT(retrained.recall(10), 0.0);
}

}  // namespace
}  // namespace rtrec
