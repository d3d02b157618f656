#include "core/topology_factory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/recommender.h"
#include "core/sim_table.h"
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

UserAction Click(UserId u, VideoId v, Timestamp t) {
  UserAction a;
  a.user = u;
  a.video = v;
  a.type = ActionType::kClick;
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

class PipelineTopologyTest : public ::testing::Test {
 protected:
  PipelineTopologyTest() {
    FactorStore::Options factor_options;
    factor_options.num_factors = 8;
    factors_ = std::make_unique<FactorStore>(factor_options);
    history_ = std::make_unique<HistoryStore>();
    table_ = std::make_unique<SimTableStore>();
  }

  PipelineDeps Deps() {
    PipelineDeps deps;
    deps.factors = factors_.get();
    deps.history = history_.get();
    deps.sim_table = table_.get();
    deps.type_resolver = [](VideoId) -> VideoType { return 0; };
    deps.model_config.num_factors = 8;
    return deps;
  }

  /// Runs the Fig. 2 topology over `actions` to completion.
  void RunPipeline(std::vector<UserAction> actions,
                   PipelineParallelism parallelism = {}) {
    auto source =
        std::make_shared<VectorActionSource>(std::move(actions));
    auto spec = BuildRecommendationTopology(source, Deps(), parallelism);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto topo = stream::Topology::Create(std::move(spec).value());
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());
    metrics_report_ = (*topo)->metrics().Report();
    // ComputeMF ships two vectors per SGD step; MFStorage writes each.
    mf_steps_shipped_ =
        (*topo)->metrics().GetCounter("compute_mf.emitted")->value() / 2;
    mf_vectors_written_ =
        (*topo)->metrics().GetCounter("mf_storage.processed")->value();
  }

  std::unique_ptr<FactorStore> factors_;
  std::unique_ptr<HistoryStore> history_;
  std::unique_ptr<SimTableStore> table_;
  std::string metrics_report_;
  std::int64_t mf_steps_shipped_ = 0;
  std::int64_t mf_vectors_written_ = 0;
};

TEST(VectorActionSourceTest, HandsOutEachActionExactlyOnce) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 5000; ++i) {
    actions.push_back(Play(static_cast<UserId>(i), 1, i));
  }
  VectorActionSource source(actions);
  EXPECT_EQ(source.size(), 5000u);

  std::atomic<std::size_t> total{0};
  std::atomic<std::uint64_t> user_sum{0};
  std::vector<std::thread> pullers;
  for (int t = 0; t < 4; ++t) {
    pullers.emplace_back([&source, &total, &user_sum] {
      while (auto action = source.Next()) {
        total.fetch_add(1);
        user_sum.fetch_add(action->user);
      }
    });
  }
  for (auto& th : pullers) th.join();
  EXPECT_EQ(total.load(), 5000u);
  EXPECT_EQ(user_sum.load(), 4999ull * 5000 / 2);
  EXPECT_FALSE(source.Next().has_value());
}

TEST(ActionTupleTest, RoundTrip) {
  const UserAction original = Play(7, 9, 1234);
  auto decoded = TupleToAction(ActionToTuple(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(ActionTupleTest, RejectsBadActionCode) {
  stream::Tuple bad(pipeline_schema::Action(), std::int64_t{1},
                    std::int64_t{2}, std::int64_t{99}, 0.0, std::int64_t{0});
  EXPECT_FALSE(TupleToAction(bad).ok());
}

TEST_F(PipelineTopologyTest, RejectsNullDeps) {
  auto source = std::make_shared<VectorActionSource>(
      std::vector<UserAction>{});
  PipelineDeps deps = Deps();
  deps.factors = nullptr;
  EXPECT_FALSE(BuildRecommendationTopology(source, deps).ok());
  EXPECT_FALSE(BuildRecommendationTopology(nullptr, Deps()).ok());
}

TEST_F(PipelineTopologyTest, TrainsModelFromStream) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000));
      actions.push_back(Play(u, 11, round * 1000 + 500));
    }
  }
  RunPipeline(std::move(actions));

  // MF vectors were created and written through MFStorage.
  EXPECT_EQ(factors_->NumUsers(), 5u);
  EXPECT_EQ(factors_->NumVideos(), 2u);
  EXPECT_EQ(mf_steps_shipped_, 300);
  EXPECT_EQ(mf_vectors_written_, 600);

  // Histories recorded.
  EXPECT_EQ(history_->Get(1).size(), 2u);

  // Similar-video tables populated via GetItemPairs -> ItemPairSim ->
  // ResultStorage.
  EXPECT_GT(table_->GetDecayedSimilarity(10, 11, 30000), 0.0);
}

TEST_F(PipelineTopologyTest, ImpressionsFlowThroughWithoutStateChanges) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 50; ++i) {
    actions.push_back(Impress(1, static_cast<VideoId>(i + 1), i * 100));
  }
  RunPipeline(std::move(actions));
  EXPECT_EQ(factors_->NumUsers(), 0u);
  EXPECT_TRUE(history_->Get(1).empty());
  EXPECT_EQ(table_->NumVideos(), 0u);
}

TEST_F(PipelineTopologyTest, HighParallelismMatchesLowParallelismCounts) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 50; ++round) {
    for (UserId u = 1; u <= 20; ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 7 + 1), round * 1000 + u));
    }
  }
  PipelineParallelism wide;
  wide.spout = 2;
  wide.compute_mf = 4;
  wide.mf_storage = 4;
  wide.user_history = 3;
  wide.get_item_pairs = 3;
  wide.item_pair_sim = 4;
  wide.result_storage = 3;
  RunPipeline(actions, wide);

  // Every engaged action trained the model exactly once: one SGD step,
  // two vectors written.
  const auto engaged = static_cast<std::int64_t>(actions.size());
  EXPECT_EQ(mf_steps_shipped_, engaged);
  EXPECT_EQ(mf_vectors_written_, 2 * engaged);
  EXPECT_EQ(factors_->NumUsers(), 20u);
  EXPECT_EQ(factors_->NumVideos(), 7u);
}

TEST_F(PipelineTopologyTest, TracedDrainReachesEveryBoltAndStampsItsWindow) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 1000));
      actions.push_back(Play(u, 11, round * 1000 + 500));
    }
  }
  MetricsRegistry metrics;
  Tracer::Options tracer_options;
  tracer_options.sample_every_n = 8;
  tracer_options.metrics = &metrics;
  Tracer tracer(tracer_options);
  stream::TopologyOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto spec = BuildRecommendationTopology(
      std::make_shared<VectorActionSource>(std::move(actions)), Deps());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  // Sampled contexts propagate from the spout through every Fig. 2 bolt.
  EXPECT_GT(metrics.GetCounter("trace.sampled")->value(), 0);
  for (const char* bolt : {"compute_mf", "mf_storage", "user_history",
                           "get_item_pairs", "item_pair_sim",
                           "result_storage"}) {
    EXPECT_GT(tracer.StageHistogram(bolt)->count(), 0u) << bolt;
  }
  // The ingest window (first spout emission to the last terminal bolt's
  // drain) is stamped, and the ring queues drained in batches.
  const std::int64_t first_emit_us =
      metrics.GetGauge("topology.first_emit_us")->value();
  EXPECT_GT(first_emit_us, 0);
  EXPECT_GT(metrics.GetGauge("topology.final_done_us")->value(),
            first_emit_us);
  EXPECT_GT(metrics.GetCounter("stream.queue.batch_drains")->value(), 0);
}

// UserHistory writes the history GetItemPairs pairs against. A log pushed
// all at once sends each user's burst through the topology faster than
// any live stream would; the co-watch pairs must still be exactly the
// ones the single-threaded SimTableUpdater forms, on every run.
TEST_F(PipelineTopologyTest, PairsMatchTheEngineWhenALogArrivesAtOnce) {
  std::vector<UserAction> actions;
  for (UserId u = 1; u <= 40; ++u) {
    for (int k = 0; k < 12; ++k) {
      actions.push_back(Play(u, static_cast<VideoId>((u * 7 + k * 3) % 50),
                             static_cast<Timestamp>(u * 100 + k)));
    }
    actions.push_back(Impress(u, 99, static_cast<Timestamp>(u * 100 + 50)));
  }
  std::int64_t engine_pairs = 0;
  {
    FactorStore factors(FactorStore::Options{});
    HistoryStore history;
    SimTableStore table;
    SimTableUpdater updater(&factors, &history, &table, Deps().type_resolver,
                            Deps().sim_config, Deps().model_config.feedback);
    for (const UserAction& a : actions) {
      engine_pairs += static_cast<std::int64_t>(updater.OnAction(a));
    }
  }
  ASSERT_GT(engine_pairs, 0);

  PipelineParallelism wide;  // One spout task keeps each user's order.
  wide.user_history = 3;
  wide.get_item_pairs = 3;
  wide.item_pair_sim = 3;
  wide.result_storage = 3;
  for (int run = 0; run < 20; ++run) {
    history_ = std::make_unique<HistoryStore>();
    table_ = std::make_unique<SimTableStore>();
    MetricsRegistry metrics;
    auto spec = BuildRecommendationTopology(
        std::make_shared<VectorActionSource>(actions), Deps(), wide);
    ASSERT_TRUE(spec.ok());
    stream::TopologyOptions options;
    options.metrics = &metrics;
    auto topo = stream::Topology::Create(std::move(spec).value(), options);
    ASSERT_TRUE(topo.ok());
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());
    EXPECT_EQ(metrics.GetCounter("get_item_pairs.processed")->value(),
              static_cast<std::int64_t>(actions.size()));
    EXPECT_EQ(metrics.GetCounter("get_item_pairs.emitted")->value(),
              engine_pairs)
        << "run " << run;
    EXPECT_EQ(metrics.GetCounter("result_storage.processed")->value(),
              engine_pairs)
        << "run " << run;
  }
}

// An action too weak to pair (a click, weight 1.0, under min_confidence
// 2.0) is still history, in the engine as in the topology: a later play
// pairs with it either way, and both keep the same per-user history.
TEST_F(PipelineTopologyTest, WeakActionsJoinTheHistoryLikeTheEngine) {
  std::vector<UserAction> actions;
  for (UserId u = 1; u <= 10; ++u) {
    const Timestamp t = static_cast<Timestamp>(u * 100);
    actions.push_back(Click(u, u, t));
    actions.push_back(Click(u, u + 1, t + 1));
    actions.push_back(Play(u, u + 2, t + 2));
    actions.push_back(Click(u, u + 3, t + 3));
    actions.push_back(Play(u, u + 4, t + 4));
  }
  PipelineDeps deps = Deps();
  deps.sim_config.min_confidence = 2.0;

  FactorStore factors(FactorStore::Options{});
  HistoryStore history;
  SimTableStore table;
  SimTableUpdater updater(&factors, &history, &table, deps.type_resolver,
                          deps.sim_config, deps.model_config.feedback);
  std::int64_t engine_pairs = 0;
  for (const UserAction& a : actions) {
    engine_pairs += static_cast<std::int64_t>(updater.OnAction(a));
  }
  EXPECT_EQ(engine_pairs, 10 * (2 + 4));

  MetricsRegistry metrics;
  auto spec = BuildRecommendationTopology(
      std::make_shared<VectorActionSource>(actions), deps);
  ASSERT_TRUE(spec.ok());
  stream::TopologyOptions options;
  options.metrics = &metrics;
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(metrics.GetCounter("get_item_pairs.emitted")->value(),
            engine_pairs);
  for (UserId u = 1; u <= 10; ++u) {
    EXPECT_EQ(history_->Get(u).size(), history.Get(u).size()) << "user " << u;
  }
}

TEST_F(PipelineTopologyTest, PairCacheHitsOnRepeatedCoWatches) {
  // Section 5.1's cache technique: the same pair recomputed within the
  // TTL is served from the ItemPairSim task-local LRU. Repeated
  // co-watches of one pair in a tight window must produce cache hits.
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 5; ++u) {
      actions.push_back(Play(u, 10, round * 100));
      actions.push_back(Play(u, 11, round * 100 + 50));
    }
  }
  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  auto spec = BuildRecommendationTopology(source, Deps());
  ASSERT_TRUE(spec.ok());
  auto topo = stream::Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_GT((*topo)->metrics().GetCounter("item_pair_sim.cache_hits")
                ->value(),
            0);
  // The table still holds the pair.
  EXPECT_GT(table_->GetDecayedSimilarity(10, 11, 4000), 0.0);
}

TEST_F(PipelineTopologyTest, ServingPathWorksOverPipelineOutput) {
  std::vector<UserAction> actions;
  for (int round = 0; round < 40; ++round) {
    for (UserId u = 1; u <= 8; ++u) {
      actions.push_back(Play(u, 10, round * 1000));
      actions.push_back(Play(u, 11, round * 1000 + 500));
      actions.push_back(Play(u, 12, round * 1000 + 700));
    }
  }
  RunPipeline(std::move(actions));

  MfModelConfig model_config;
  model_config.num_factors = 8;
  OnlineMf model(factors_.get(), model_config);
  RecommendConfig rec_config;
  MfRecommender recommender(&model, history_.get(), table_.get(), rec_config);
  RecRequest request;
  request.user = 999;
  request.seed_videos = {10};
  request.now = 40000;
  auto recs = recommender.Recommend(request);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  for (const auto& r : *recs) {
    EXPECT_TRUE(r.video == 11 || r.video == 12) << r.video;
  }
}

}  // namespace
}  // namespace rtrec
