// Micro-performance suite (google-benchmark) backing the paper's
// production claims (Section 6 intro: milliseconds latency, billions of
// tuples/day) and the design-choice ablations of DESIGN.md:
//   - Algorithm 1 update cost and Eq. 2 prediction cost;
//   - end-to-end Recommend latency with candidate selection vs a full
//     catalog scan (the Section 4.1 argument);
//   - similar-table and cache primitives;
//   - Fig. 2 topology throughput vs parallelism (single-writer via
//     fields grouping vs locked stores is exercised implicitly).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "common/lru_cache.h"
#include "core/topology_factory.h"
#include "kvstore/checkpoint.h"
#include "data/event_generator.h"
#include "eval/experiment_runner.h"
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

// ---------------------------------------------------------------------
// Algorithm 1: single-action model update.
void BM_OnlineMfUpdate(benchmark::State& state) {
  const int factors = static_cast<int>(state.range(0));
  FactorStore::Options options;
  options.num_factors = factors;
  FactorStore store(options);
  MfModelConfig config;
  config.num_factors = factors;
  OnlineMf model(&store, config);
  Rng rng(1);
  Timestamp t = 0;
  for (auto _ : state) {
    const UserId u = 1 + rng.NextUint64(10000);
    const VideoId v = 1 + rng.NextUint64(2000);
    benchmark::DoNotOptimize(model.Update(Play(u, v, ++t)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineMfUpdate)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Eq. 2 preference prediction.
void BM_Predict(benchmark::State& state) {
  FactorStore::Options options;
  options.num_factors = static_cast<int>(state.range(0));
  FactorStore store(options);
  MfModelConfig config;
  config.num_factors = options.num_factors;
  OnlineMf model(&store, config);
  for (UserId u = 1; u <= 100; ++u) {
    for (VideoId v = 1; v <= 100; ++v) {
      if ((u + v) % 7 == 0) model.Update(Play(u, v, 0));
    }
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.Predict(1 + rng.NextUint64(100), 1 + rng.NextUint64(100)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Predict)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------
// Serving path: candidate selection via similar-video tables (the
// production design) vs scoring the whole catalog (the strawman the
// paper's Section 4.1 rules out).
struct ServingFixture {
  // A mid-sized catalog so the full-scan strawman pays the linear cost
  // the paper's Section 4.1 argues against (their catalog has millions
  // of videos; the gap grows with catalog size).
  static WorldConfig FixtureConfig() {
    WorldConfig config = SmallWorldConfig(5);
    config.catalog.num_videos = 4000;
    config.population.num_users = 500;
    return config;
  }

  ServingFixture() : world(FixtureConfig()) {
    engine = std::make_unique<RecEngine>(
        world.TypeResolver(), DefaultEngineOptions(UpdatePolicy::kCombine));
    for (const UserAction& action : world.GenerateDays(0, 3)) {
      engine->Observe(action);
    }
  }
  SyntheticWorld world;
  std::unique_ptr<RecEngine> engine;
};

ServingFixture& Serving() {
  static ServingFixture& fixture = *new ServingFixture();
  return fixture;
}

void BM_RecommendWithCandidateSelection(benchmark::State& state) {
  ServingFixture& f = Serving();
  Rng rng(3);
  for (auto _ : state) {
    RecRequest request;
    request.user = 1 + rng.NextUint64(f.world.population().size());
    request.top_n = 10;
    request.now = 3 * kMillisPerDay;
    benchmark::DoNotOptimize(f.engine->Recommend(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecommendWithCandidateSelection);

// "Guess you like" (Fig. 6) for users with history only, so every read
// takes the full path: eight history seeds, their similar-video lists,
// one batched VectorsGet and Eq. 2 scoring, in per-thread buffers.
void BM_RecommendGuessYouLike(benchmark::State& state) {
  ServingFixture& f = Serving();
  std::vector<UserId> users;
  for (UserId u = 1; u <= f.world.population().size(); ++u) {
    if (!f.engine->history().Get(u).empty()) users.push_back(u);
  }
  Rng rng(5);
  RecRequest request;
  request.top_n = 10;
  request.now = 3 * kMillisPerDay;
  for (auto _ : state) {
    request.user = users[rng.NextUint64(users.size())];
    benchmark::DoNotOptimize(f.engine->recommender().Recommend(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecommendGuessYouLike);

void BM_RecommendFullCatalogScan(benchmark::State& state) {
  ServingFixture& f = Serving();
  Rng rng(4);
  OnlineMf& model = f.engine->model();
  const std::size_t catalog_size = f.world.catalog().size();
  for (auto _ : state) {
    const UserId user = 1 + rng.NextUint64(f.world.population().size());
    // Score every video in the catalog (what candidate selection avoids).
    double best = -1e18;
    VideoId best_video = 0;
    for (VideoId v = 1; v <= catalog_size; ++v) {
      const double score = model.Predict(user, v);
      if (score > best) {
        best = score;
        best_video = v;
      }
    }
    benchmark::DoNotOptimize(best_video);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecommendFullCatalogScan);

// ---------------------------------------------------------------------
// Store primitives.
void BM_SimTableUpdate(benchmark::State& state) {
  SimTableStore table;
  Rng rng(7);
  Timestamp t = 0;
  for (auto _ : state) {
    table.Update(1 + rng.NextUint64(2000), 1 + rng.NextUint64(2000),
                 rng.NextDouble(), ++t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTableUpdate);

void BM_SimTableQuery(benchmark::State& state) {
  SimTableStore table;
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    table.Update(1 + rng.NextUint64(2000), 1 + rng.NextUint64(2000),
                 rng.NextDouble(), i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Query(1 + rng.NextUint64(2000), 100000, 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTableQuery);

// Fig. 1's VectorsGet at the serving path's batch size (~24 candidates a
// read in perfbench's serve workload), into a caller's row buffer.
void BM_GetVideosInto24(benchmark::State& state) {
  constexpr std::size_t kKeys = 24;
  FactorStore store;
  const std::size_t f = static_cast<std::size_t>(store.num_factors());
  for (VideoId v = 1; v <= 25000; ++v) store.GetOrInitVideo(v);
  Rng rng(9);
  std::vector<VideoId> ids(kKeys);
  std::vector<float> rows(kKeys * f);
  std::vector<float> biases(kKeys);
  bool found[kKeys];
  for (auto _ : state) {
    for (VideoId& id : ids) id = 1 + rng.NextUint64(25000);
    benchmark::DoNotOptimize(
        store.GetVideosInto(ids, rows, biases, found));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_GetVideosInto24);

// LRU pair cache (Section 5.1's cache technique).
void BM_LruCacheHitPath(benchmark::State& state) {
  LruCache<VideoPair, double, VideoPairHash> cache(4096);
  Rng rng(11);
  for (int i = 0; i < 4096; ++i) {
    cache.Put(VideoPair(rng.NextUint64(64), rng.NextUint64(64)), 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Get(VideoPair(rng.NextUint64(64), rng.NextUint64(64))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheHitPath);

// Checkpoint save/load of a trained engine's stores.
void BM_CheckpointRoundTrip(benchmark::State& state) {
  ServingFixture& f = Serving();
  const std::string path = "/tmp/rtrec_bench_ckpt.bin";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SaveCheckpoint(path, &f.engine->factors(), &f.engine->sim_table(),
                       &f.engine->history()));
    FactorStore::Options options;
    options.num_factors = f.engine->options().model.num_factors;
    FactorStore restored(options);
    SimTableStore table;
    HistoryStore history;
    benchmark::DoNotOptimize(
        LoadCheckpoint(path, &restored, &table, &history));
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointRoundTrip)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Fig. 2 topology end-to-end throughput vs parallelism.
void BM_TopologyThroughput(benchmark::State& state) {
  const std::size_t parallelism = static_cast<std::size_t>(state.range(0));
  const SyntheticWorld world(SmallWorldConfig(9));
  std::vector<UserAction> actions = world.GenerateDays(0, 1);

  for (auto _ : state) {
    FactorStore::Options factor_options;
    factor_options.num_factors = 32;
    FactorStore factors(factor_options);
    HistoryStore history;
    SimTableStore sim_table;
    PipelineDeps deps;
    deps.factors = &factors;
    deps.history = &history;
    deps.sim_table = &sim_table;
    deps.type_resolver = world.TypeResolver();
    auto source = std::make_shared<VectorActionSource>(actions);
    PipelineParallelism p;
    p.spout = 1;
    p.compute_mf = parallelism;
    p.mf_storage = parallelism;
    p.user_history = parallelism;
    p.get_item_pairs = parallelism;
    p.item_pair_sim = parallelism;
    p.result_storage = parallelism;
    auto spec = BuildRecommendationTopology(source, deps, p);
    auto topo = stream::Topology::Create(std::move(spec).value());
    (void)(*topo)->Start();
    (void)(*topo)->Join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(actions.size()));
}
// Arg: parallelism of every bolt.
BENCHMARK(BM_TopologyThroughput)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace rtrec
