#include "demographic/demographic_topology.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "core/recommender.h"
#include "core/sim_table.h"
#include "demographic/group_checkpoint.h"
#include "stream/topology.h"

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

/// Every directed (video, neighbour) entry of a similar-video table.
std::set<std::pair<VideoId, VideoId>> TablePairs(const SimTableStore& table) {
  std::set<std::pair<VideoId, VideoId>> pairs;
  table.ForEachList([&pairs](VideoId video,
                             std::span<const SimilarVideo> list) {
    for (const SimilarVideo& entry : list) pairs.emplace(video, entry.video);
  });
  return pairs;
}

class DemographicTopologyTest : public ::testing::Test {
 protected:
  DemographicTopologyTest() {
    // Users 1-5: male 18-24 (group A); 11-15: female 35-49 (group B);
    // user 100 unregistered (global).
    UserProfile male;
    male.registered = true;
    male.gender = Gender::kMale;
    male.age = AgeBucket::k18To24;
    for (UserId u = 1; u <= 5; ++u) grouper_.RegisterProfile(u, male);
    group_a_ = DemographicGrouper::GroupFor(male);

    UserProfile female;
    female.registered = true;
    female.gender = Gender::kFemale;
    female.age = AgeBucket::k35To49;
    for (UserId u = 11; u <= 15; ++u) grouper_.RegisterProfile(u, female);
    group_b_ = DemographicGrouper::GroupFor(female);

    GroupStoreRegistry::Options options;
    options.num_factors = 8;
    registry_ = std::make_unique<GroupStoreRegistry>(options);
  }

  DemographicPipelineDeps Deps() {
    DemographicPipelineDeps deps;
    deps.stores = registry_.get();
    deps.grouper = &grouper_;
    deps.type_resolver = [](VideoId) -> VideoType { return 0; };
    deps.model_config.num_factors = 8;
    return deps;
  }

  void RunPipeline(std::vector<UserAction> actions,
                   PipelineParallelism parallelism = {}) {
    auto source =
        std::make_shared<VectorActionSource>(std::move(actions));
    auto spec = BuildDemographicTopology(source, Deps(), parallelism);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto topo = stream::Topology::Create(std::move(spec).value());
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());
  }

  DemographicGrouper grouper_;
  std::unique_ptr<GroupStoreRegistry> registry_;
  GroupId group_a_ = 0;
  GroupId group_b_ = 0;
};

TEST(GroupStoreRegistryTest, LazyCreationAndStableIdentity) {
  GroupStoreRegistry registry;
  EXPECT_EQ(registry.Find(3), nullptr);
  GroupStores& stores = registry.GetOrCreate(3);
  EXPECT_EQ(&registry.GetOrCreate(3), &stores);
  EXPECT_EQ(registry.Find(3), &stores);
  EXPECT_EQ(registry.ActiveGroups().size(), 1u);
  ASSERT_NE(stores.factors, nullptr);
  ASSERT_NE(stores.history, nullptr);
  ASSERT_NE(stores.sim_table, nullptr);
}

TEST(GroupStoreRegistryTest, GroupsGetIndependentInitStreams) {
  GroupStoreRegistry registry;
  FactorEntry a = registry.GetOrCreate(1).factors->GetOrInitVideo(42);
  FactorEntry b = registry.GetOrCreate(2).factors->GetOrInitVideo(42);
  EXPECT_NE(a.vec, b.vec);  // Independent per-group models.
}

TEST_F(DemographicTopologyTest, ValidatesDeps) {
  auto source = std::make_shared<VectorActionSource>(
      std::vector<UserAction>{});
  DemographicPipelineDeps bad = Deps();
  bad.grouper = nullptr;
  EXPECT_FALSE(BuildDemographicTopology(source, bad).ok());

  DemographicPipelineDeps mismatched = Deps();
  mismatched.model_config.num_factors = 16;  // Registry is f = 8.
  EXPECT_FALSE(BuildDemographicTopology(source, mismatched).ok());
}

TEST_F(DemographicTopologyTest, ActionsPartitionByGroup) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 20; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000 + u));
    }
    for (UserId u = 11; u <= 15; ++u) {
      actions.push_back(Play(u, 20, round * 1000 + u));
    }
    actions.push_back(Play(100, 30, round * 1000 + 100));
  }
  RunPipeline(std::move(actions));

  GroupStores* a = registry_->Find(group_a_);
  GroupStores* b = registry_->Find(group_b_);
  GroupStores* global = registry_->Find(kGlobalGroup);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(global, nullptr);

  // Group A saw only video 10, group B only 20, global only 30.
  EXPECT_TRUE(a->factors->GetVideo(10).ok());
  EXPECT_TRUE(a->factors->GetVideo(20).status().IsNotFound());
  EXPECT_TRUE(b->factors->GetVideo(20).ok());
  EXPECT_TRUE(b->factors->GetVideo(10).status().IsNotFound());
  EXPECT_TRUE(global->factors->GetVideo(30).ok());
  EXPECT_EQ(a->factors->NumUsers(), 5u);
  EXPECT_EQ(b->factors->NumUsers(), 5u);
  EXPECT_EQ(global->factors->NumUsers(), 1u);
}

TEST_F(DemographicTopologyTest, SimilarityTablesStayWithinGroups) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 25; ++round) {
    for (UserId u = 1; u <= 5; ++u) {  // Group A co-watches 10 and 11.
      actions.push_back(Play(u, 10, round * 1000 + u * 10));
      actions.push_back(Play(u, 11, round * 1000 + u * 10 + 5));
    }
    for (UserId u = 11; u <= 15; ++u) {  // Group B co-watches 20 and 21.
      actions.push_back(Play(u, 20, round * 1000 + u * 10));
      actions.push_back(Play(u, 21, round * 1000 + u * 10 + 5));
    }
  }
  const Timestamp now = 26000;
  RunPipeline(std::move(actions));

  GroupStores* a = registry_->Find(group_a_);
  GroupStores* b = registry_->Find(group_b_);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->sim_table->GetDecayedSimilarity(10, 11, now), 0.0);
  EXPECT_DOUBLE_EQ(a->sim_table->GetDecayedSimilarity(20, 21, now), 0.0);
  EXPECT_GT(b->sim_table->GetDecayedSimilarity(20, 21, now), 0.0);
  EXPECT_DOUBLE_EQ(b->sim_table->GetDecayedSimilarity(10, 11, now), 0.0);
}

TEST_F(DemographicTopologyTest, ParallelismPreservesPerGroupCounts) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 3 + 1), round * 1000 + u));
    }
    for (UserId u = 11; u <= 15; ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 3 + 10), round * 1000 + u));
    }
  }
  const std::size_t total = actions.size();
  PipelineParallelism wide;
  wide.spout = 2;
  wide.compute_mf = 4;
  wide.mf_storage = 4;
  wide.user_history = 3;
  wide.get_item_pairs = 3;
  wide.item_pair_sim = 3;
  wide.result_storage = 3;
  RunPipeline(std::move(actions), wide);

  GroupStores* a = registry_->Find(group_a_);
  GroupStores* b = registry_->Find(group_b_);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Every action trained its group's model exactly once.
  EXPECT_EQ(a->factors->RatingCount() + b->factors->RatingCount(), total);
  EXPECT_EQ(a->factors->RatingCount(), total / 2);
}

// The demographic counterpart of the pipeline test of the same name: a
// log pushed all at once must form, within each group, exactly the pairs
// and histories a per-group SimTableUpdater forms, on every run.
TEST_F(DemographicTopologyTest, PairsMatchTheEngineWhenALogArrivesAtOnce) {
  std::vector<UserAction> actions;
  for (const UserId u : {1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 100}) {
    for (int k = 0; k < 12; ++k) {
      actions.push_back(Play(u, static_cast<VideoId>((u * 7 + k * 3) % 50),
                             static_cast<Timestamp>(u * 100 + k)));
    }
    actions.push_back(Impress(u, 99, static_cast<Timestamp>(u * 100 + 50)));
  }
  DemographicPipelineDeps deps = Deps();
  // Type similarity only: every formed pair stays in the table whatever
  // the (thread-timed) vectors, so the tables' pair sets are comparable.
  deps.sim_config.beta = 1.0;

  GroupStoreRegistry::Options options;
  options.num_factors = 8;
  GroupStoreRegistry engine_stores(options);
  std::int64_t engine_pairs = 0;
  for (const UserAction& a : actions) {
    GroupStores& stores = engine_stores.GetOrCreate(grouper_.GroupOf(a.user));
    SimTableUpdater updater(stores.factors.get(), stores.history.get(),
                            stores.sim_table.get(), deps.type_resolver,
                            deps.sim_config, deps.model_config.feedback);
    engine_pairs += static_cast<std::int64_t>(updater.OnAction(a));
  }
  ASSERT_GT(engine_pairs, 0);

  PipelineParallelism wide;  // One spout task keeps each user's order.
  wide.user_history = 3;
  wide.get_item_pairs = 3;
  wide.item_pair_sim = 3;
  wide.result_storage = 3;
  for (int run = 0; run < 20; ++run) {
    registry_ = std::make_unique<GroupStoreRegistry>(options);
    deps.stores = registry_.get();
    MetricsRegistry metrics;
    auto spec = BuildDemographicTopology(
        std::make_shared<VectorActionSource>(actions), deps, wide);
    ASSERT_TRUE(spec.ok());
    stream::TopologyOptions topology_options;
    topology_options.metrics = &metrics;
    auto topo =
        stream::Topology::Create(std::move(spec).value(), topology_options);
    ASSERT_TRUE(topo.ok());
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());
    EXPECT_EQ(metrics.GetCounter("get_item_pairs.emitted")->value(),
              engine_pairs)
        << "run " << run;
    for (const GroupId group : {group_a_, group_b_, kGlobalGroup}) {
      const GroupStores* engine = engine_stores.Find(group);
      const GroupStores* topology = registry_->Find(group);
      ASSERT_NE(engine, nullptr);
      ASSERT_NE(topology, nullptr);
      EXPECT_EQ(TablePairs(*topology->sim_table), TablePairs(*engine->sim_table))
          << "run " << run << " group " << group;
      for (const UserAction& a : actions) {
        if (grouper_.GroupOf(a.user) != group) continue;
        EXPECT_EQ(topology->history->Get(a.user).size(),
                  engine->history->Get(a.user).size())
            << "run " << run << " user " << a.user;
      }
    }
  }
}

// Two groups co-watch the same pair within the cache TTL on one
// ItemPairSim task. Each group's table must hold the similarity of its
// own video vectors: a cache keyed by the pair alone would serve the
// second group the first group's value.
TEST_F(DemographicTopologyTest, PairCacheKeepsGroupsApart) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 20; ++round) {
    const Timestamp t = round * 100;
    actions.push_back(Play(1, 10, t));       // Group A.
    actions.push_back(Play(1, 11, t + 1));
    actions.push_back(Play(11, 10, t + 2));  // Group B.
    actions.push_back(Play(11, 11, t + 3));
  }
  DemographicPipelineDeps deps = Deps();
  deps.sim_config.pair_cache_ttl_millis = 1e9;
  // Steps far below float resolution leave every video vector at its
  // group's initial value, so the expected similarity is known.
  deps.model_config.eta0 = 1e-12;
  deps.model_config.alpha = 0.0;
  PipelineParallelism parallelism;
  parallelism.item_pair_sim = 1;
  MetricsRegistry metrics;
  auto spec = BuildDemographicTopology(
      std::make_shared<VectorActionSource>(std::move(actions)), deps,
      parallelism);
  ASSERT_TRUE(spec.ok());
  stream::TopologyOptions options;
  options.metrics = &metrics;
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_GT(metrics.GetCounter("item_pair_sim.cache_hits")->value(), 0);

  double sims[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    GroupStores* stores = registry_->Find(i == 0 ? group_a_ : group_b_);
    ASSERT_NE(stores, nullptr);
    const double own = PairSimilarity(*stores->factors, deps.type_resolver,
                                      deps.sim_config, 10, 11);
    stores->sim_table->ForEachList(
        [&sims, i](VideoId video, std::span<const SimilarVideo> list) {
          if (video != 10) return;
          for (const SimilarVideo& entry : list) {
            if (entry.video == 11) sims[i] = entry.similarity;
          }
        });
    EXPECT_NEAR(sims[i], own, 1e-9) << "group " << i;
  }
  EXPECT_GT(std::abs(sims[0] - sims[1]), 1e-6);  // The groups do differ.
}

TEST_F(DemographicTopologyTest, GroupServerServesFromGroupStores) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 25; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000 + u * 10));
      actions.push_back(Play(u, 11, round * 1000 + u * 10 + 5));
    }
  }
  RunPipeline(std::move(actions));

  GroupStores* a = registry_->Find(group_a_);
  ASSERT_NE(a, nullptr);
  MfModelConfig model_config;
  model_config.num_factors = 8;
  GroupServer server(a, model_config);
  RecRequest request;
  request.user = 3;
  request.seed_videos = {10};
  request.now = 26000;
  auto recs = server.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 11u);
}

TEST_F(DemographicTopologyTest, GroupCheckpointRoundTrip) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 15; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000 + u * 10));
      actions.push_back(Play(u, 11, round * 1000 + u * 10 + 5));
    }
    actions.push_back(Play(11, 20, round * 1000 + 500));
    actions.push_back(Play(100, 30, round * 1000 + 600));  // Global.
  }
  RunPipeline(std::move(actions));

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("rtrec_group_ckpt_" + std::to_string(::getpid())))
          .string();
  ASSERT_TRUE(SaveGroupCheckpoint(dir, *registry_).ok());

  GroupStoreRegistry::Options options;
  options.num_factors = 8;
  GroupStoreRegistry restored(options);
  ASSERT_TRUE(LoadGroupCheckpoint(dir, restored).ok());

  // All three groups (A, B, global) came back with their state.
  EXPECT_EQ(restored.ActiveGroups().size(),
            registry_->ActiveGroups().size());
  const GroupStores* a = restored.Find(group_a_);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->factors->NumUsers(), 5u);
  EXPECT_GT(a->sim_table->GetDecayedSimilarity(10, 11, 16000), 0.0);
  const GroupStores* global = restored.Find(kGlobalGroup);
  ASSERT_NE(global, nullptr);
  EXPECT_TRUE(global->factors->GetVideo(30).ok());

  // Serving from the restored registry matches the original.
  MfModelConfig model_config;
  model_config.num_factors = 8;
  GroupServer original(registry_->Find(group_a_), model_config);
  GroupServer revived(restored.Find(group_a_), model_config);
  RecRequest request;
  request.user = 2;
  request.seed_videos = {10};
  request.now = 16000;
  auto before = original.Recommend(request);
  auto after = revived.Recommend(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);

  std::filesystem::remove_all(dir);
}

TEST_F(DemographicTopologyTest, LoadGroupCheckpointMissingDirIsNotFound) {
  GroupStoreRegistry::Options options;
  options.num_factors = 8;
  GroupStoreRegistry registry(options);
  EXPECT_TRUE(
      LoadGroupCheckpoint("/nonexistent/ckpts", registry).IsNotFound());
}

TEST_F(DemographicTopologyTest, ServingFromGroupStores) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 25; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000 + u * 10));
      actions.push_back(Play(u, 11, round * 1000 + u * 10 + 5));
    }
  }
  RunPipeline(std::move(actions));

  GroupStores* a = registry_->Find(group_a_);
  ASSERT_NE(a, nullptr);
  MfModelConfig model_config;
  model_config.num_factors = 8;
  OnlineMf model(a->factors.get(), model_config);
  MfRecommender recommender(&model, a->history.get(), a->sim_table.get(),
                            nullptr, RecommendConfig{});
  RecRequest request;
  request.user = 2;  // Group A member.
  request.seed_videos = {10};
  request.now = 26000;
  auto recs = recommender.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 11u);
}

}  // namespace
}  // namespace rtrec
