/// Compile-and-smoke test of the umbrella header: everything a library
/// user needs must be reachable through `rtrec.h` alone, and the README
/// quickstart flow must work verbatim.

#include "rtrec.h"

#include <gtest/gtest.h>

namespace rtrec {
namespace {

TEST(UmbrellaTest, ReadmeQuickstartFlow) {
  RecEngine engine(
      [](VideoId v) -> VideoType { return v < 100 ? 0 : 1; });

  UserAction action;
  action.user = 1;
  action.video = 10;
  action.type = ActionType::kPlayTime;
  action.view_fraction = 0.95;
  action.time = 1000;
  engine.Observe(action);

  RecRequest request;
  request.user = 42;
  request.seed_videos = {10};
  request.top_n = 10;
  request.now = 1000;
  auto recs = engine.Recommend(request);
  ASSERT_TRUE(recs.ok());
}

TEST(UmbrellaTest, MajorTypesAreComplete) {
  // Instantiate one of everything a downstream user composes; this test
  // exists to fail at compile time if rtrec.h loses an include.
  const VideoTypeResolver types = [](VideoId) -> VideoType { return 0; };
  RecommendationService service(types);
  DemographicGrouper grouper;
  HotVideoTracker hot;
  HotRecommender hot_baseline;
  AssociationRuleRecommender ar;
  SimHashCfRecommender simhash;
  ItemCfRecommender item_cf;
  ReservoirMfRecommender reservoir(
      types, ReservoirMfRecommender::Options{});
  Histogram histogram;
  Rng rng(1);
  ZipfDistribution zipf(10, 1.0);
  stream::TopologyBuilder builder;
  OfflineEvaluator evaluator;
  const WorldConfig config = SmallWorldConfig();
  (void)config;
  SUCCEED();
}

TEST(UmbrellaTest, StreamNamespaceReachable) {
  stream::Schema schema({"a"});
  EXPECT_EQ(schema.IndexOf("a"), 0);
  stream::Grouping grouping = stream::Grouping::Fields({"a"});
  EXPECT_EQ(grouping.type, stream::GroupingType::kFields);
}

}  // namespace
}  // namespace rtrec
