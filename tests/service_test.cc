#include "service/recommendation_service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "demographic/group_checkpoint.h"

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

VideoTypeResolver OneType() {
  return [](VideoId) -> VideoType { return 0; };
}

RecommendationService::Options FastOptions() {
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  options.engine.model.eta0 = 0.05;
  return options;
}

UserProfile MaleYoung() {
  UserProfile p;
  p.registered = true;
  p.gender = Gender::kMale;
  p.age = AgeBucket::k18To24;
  return p;
}

TEST(RecommendationServiceTest, ColdStartServesHotVideos) {
  RecommendationService service(OneType(), FastOptions());
  // Some global traffic heats videos.
  for (UserId u = 1; u <= 5; ++u) {
    service.Observe(Play(u, 100, 1000));
    service.Observe(Play(u, 101, 2000));
  }
  RecRequest request;
  request.user = 999;  // Never seen, unregistered.
  request.top_n = 5;
  request.now = 3000;
  auto recs = service.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty()) << "cold users must never get an empty page";
  EXPECT_TRUE((*recs)[0].video == 100 || (*recs)[0].video == 101);
}

TEST(RecommendationServiceTest, WarmUserGetsPersonalizedResults) {
  RecommendationService service(OneType(), FastOptions());
  for (UserId u = 1; u <= 6; ++u) {
    service.RegisterProfile(u, MaleYoung());
  }
  Timestamp t = 0;
  for (int round = 0; round < 25; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      service.Observe(Play(u, 10, t += 1000));
      service.Observe(Play(u, 11, t += 1000));
    }
    service.Observe(Play(50, 200, t += 1000));  // Unrelated hot noise.
  }
  RecRequest request;
  request.user = 1;
  request.seed_videos = {10};
  request.top_n = 3;
  request.now = t;
  auto recs = service.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 11u);  // Group co-watch wins the top slot.
}

TEST(RecommendationServiceTest, MetricsCountTraffic) {
  MetricsRegistry registry;
  RecommendationService::Options options = FastOptions();
  options.metrics = &registry;
  RecommendationService service(OneType(), options);
  service.Observe(Play(1, 10, 100));
  service.Observe(Play(1, 11, 200));
  RecRequest request;
  request.user = 1;
  request.now = 300;
  (void)service.Recommend(request);
  EXPECT_EQ(registry.GetCounter("service.actions")->value(), 2);
  EXPECT_EQ(registry.GetCounter("service.requests")->value(), 1);
}

TEST(RecommendationServiceTest, ServingPathMetricsVisible) {
  // The batched VectorsGet must surface through the service registry
  // (the Stats RPC serves exactly this registry).
  MetricsRegistry registry;
  RecommendationService::Options options = FastOptions();
  options.metrics = &registry;
  RecommendationService service(OneType(), options);
  Timestamp t = 0;
  for (int round = 0; round < 10; ++round) {
    for (UserId u = 1; u <= 4; ++u) {
      service.Observe(Play(u, 10, t += 1000));
      service.Observe(Play(u, 11, t += 1000));
    }
  }
  RecRequest request;
  request.user = 1;
  request.seed_videos = {10};
  request.now = t;
  ASSERT_TRUE(service.Recommend(request).ok());
  ASSERT_TRUE(service.Recommend(request).ok());
  EXPECT_GT(registry.GetCounter("kvstore.multiget.calls")->value(), 0);
  EXPECT_GT(registry.GetCounter("kvstore.multiget.keys")->value(), 0);
}

TEST(RecommendationServiceTest, ConcurrentTrafficIsSafe) {
  MetricsRegistry registry;
  RecommendationService::Options options = FastOptions();
  options.metrics = &registry;
  RecommendationService service(OneType(), options);
  for (UserId u = 1; u <= 8; ++u) service.RegisterProfile(u, MaleYoung());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&service, t] {
      for (int i = 0; i < 1500; ++i) {
        service.Observe(Play(1 + (t * 7 + i) % 8,
                             1 + static_cast<VideoId>(i % 30), i));
      }
    });
  }
  threads.emplace_back([&service, &stop] {
    RecRequest request;
    request.top_n = 5;
    while (!stop.load()) {
      request.user = 1;
      request.now = 100000;
      ASSERT_TRUE(service.Recommend(request).ok());
    }
  });
  for (int t = 0; t < 3; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true);
  threads.back().join();
  EXPECT_GT(registry.GetCounter("service.requests")->value(), 0);
}

TEST(RecommendationServiceTest, CheckpointRestoreRoundTrip) {
  const std::string dir =
      "/tmp/rtrec_service_ckpt_" + std::to_string(::getpid());
  RecommendationService original(OneType(), FastOptions());
  original.RegisterProfile(1, MaleYoung());
  Timestamp t = 0;
  for (int round = 0; round < 20; ++round) {
    original.Observe(Play(1, 10, t += 1000));
    original.Observe(Play(1, 11, t += 1000));
    original.Observe(Play(99, 30, t += 1000));  // Global engine traffic.
  }
  ASSERT_TRUE(original.Checkpoint(dir).ok());

  RecommendationService restored(OneType(), FastOptions());
  restored.RegisterProfile(1, MaleYoung());  // Profiles re-registered.
  ASSERT_TRUE(restored.Restore(dir).ok());

  EXPECT_EQ(restored.trainer()->ActiveGroups().size(), 1u);
  RecEngine* group_engine = restored.trainer()->GetEngine(
      DemographicGrouper::GroupFor(MaleYoung()));
  ASSERT_NE(group_engine, nullptr);
  EXPECT_GT(group_engine->sim_table().GetDecayedSimilarity(10, 11, t), 0.0);
  RecEngine* global = restored.trainer()->GetEngine(kGlobalGroup);
  ASSERT_NE(global, nullptr);
  EXPECT_TRUE(global->factors().GetVideo(30).ok());

  std::filesystem::remove_all(dir);
}

TEST(RecommendationServiceTest, GlobalOnlySnapshotRestoresIntoGlobalEngine) {
  // A snapshot whose manifest lists only the global group (the layout
  // any single-engine writer produces) restores into the trainer's
  // global engine and materializes no group engine.
  const std::string dir =
      "/tmp/rtrec_service_gckpt_" + std::to_string(::getpid());
  RecEngine engine(OneType(), FastOptions().engine);
  for (int i = 0; i < 30; ++i) {
    engine.Observe(Play(1 + i % 3, 1 + i % 5, i * 100));
  }
  ASSERT_TRUE(SaveGroupCheckpoint(dir, {{kGlobalGroup, &engine}}).ok());

  RecommendationService restored(OneType(), FastOptions());
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_TRUE(restored.trainer()->ActiveGroups().empty());
  RecEngine* global = restored.trainer()->GetEngine(kGlobalGroup);
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->factors().NumVideos(), engine.factors().NumVideos());
  EXPECT_TRUE(global->factors().GetVideo(3).ok());
  std::filesystem::remove_all(dir);
}

TEST(RecommendationServiceTest, RestoreFromMissingDirectoryIsNotFound) {
  // examples/serve starts fresh on NotFound and exits on any other error.
  RecommendationService service(OneType(), FastOptions());
  EXPECT_TRUE(service.Restore("/nonexistent/rtrec_ckpts").IsNotFound());
}

TEST(RecommendationServiceTest, FallbackExcludesRequestSeeds) {
  // Regression: the degraded-mode path used to ignore request.seed_videos
  // and could hand back the very video the user was watching.
  RecommendationService service(OneType(), FastOptions());
  for (UserId u = 1; u <= 5; ++u) service.Observe(Play(u, 100, 1000));
  for (UserId u = 1; u <= 3; ++u) service.Observe(Play(u, 101, 2000));
  RecRequest request;
  request.user = 999;
  request.seed_videos = {100};  // The video on screen — and the hottest.
  request.top_n = 1;
  request.now = 3000;
  std::vector<ScoredVideo> recs = service.FallbackRecommend(request);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].video, 101u);
}

TEST(RecommendationServiceTest, FallbackStillFullWhenSeedsOverlapHotList) {
  // Over-fetching keeps the page full after filtering.
  RecommendationService service(OneType(), FastOptions());
  for (UserId u = 1; u <= 5; ++u) {
    service.Observe(Play(u, 100, 1000));
    service.Observe(Play(u, 101, 1500));
    service.Observe(Play(u, 102, 2000));
  }
  RecRequest request;
  request.user = 999;
  request.seed_videos = {100};
  request.top_n = 2;
  request.now = 3000;
  std::vector<ScoredVideo> recs = service.FallbackRecommend(request);
  EXPECT_EQ(recs.size(), 2u);
  for (const auto& r : recs) EXPECT_NE(r.video, 100u);
}

TEST(RecommendationServiceTest, ProfilesRouteToGroupEngines) {
  RecommendationService service(OneType(), FastOptions());
  service.RegisterProfile(1, MaleYoung());
  service.Observe(Play(1, 10, 100));   // Male group engine.
  service.Observe(Play(99, 20, 100));  // Unregistered -> global only.
  EXPECT_EQ(service.trainer()->ActiveGroups().size(), 1u);
}

}  // namespace
}  // namespace rtrec
