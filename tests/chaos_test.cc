/// Chaos tests: every fault point armed at ~1%, full stacks driven hard,
/// and the invariants that must hold anyway — no crash, no deadlock,
/// bounded tuple loss (delivery is at-most-once), monotone metrics,
/// checkpoints that survive injected write failures and a simulated
/// kill -9. Run under ASan and TSan in CI (see .github/workflows/ci.yml
/// and scripts/chaos.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/topology_factory.h"
#include "net/rec_client.h"
#include "net/rec_server.h"
#include "service/checkpointer.h"
#include "service/recommendation_service.h"
#include "stream/topology.h"

namespace rtrec {
namespace {

constexpr double kChaosRate = 0.01;

UserAction Play(UserId user, VideoId video, Timestamp t) {
  UserAction action;
  action.user = user;
  action.video = video;
  action.type = ActionType::kPlayTime;
  action.view_fraction = 1.0;
  action.time = t;
  return action;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A stuck drain or a server deadlock must fail loudly, not hang the
    // suite (SIGALRM's default action kills the process).
    alarm(240);
    FaultInjector::Instance().SetMetrics(&chaos_metrics_);
  }

  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().SetMetrics(nullptr);
    alarm(0);
  }

  static void ArmStreamFaults() {
    auto& injector = FaultInjector::Instance();
    injector.Arm("stream.bolt.process",
                 FaultSpec::Error().WithProbability(kChaosRate));
    injector.Arm("stream.queue.push",
                 FaultSpec::Error().WithProbability(kChaosRate));
  }

  // Each armed stream point fired: an arm that no code path reaches would
  // otherwise pass on the other points' share of the fault.injected
  // rollup. At 1% over thousands of evaluations per point, the chance of
  // either staying zero is negligible.
  static void ExpectStreamFaultsFired() {
    auto& injector = FaultInjector::Instance();
    EXPECT_GT(injector.InjectedCount("stream.bolt.process"), 0u);
    EXPECT_GT(injector.InjectedCount("stream.queue.push"), 0u);
  }

  static void ArmNetFaults() {
    auto& injector = FaultInjector::Instance();
    for (const char* point :
         {"net.socket.read", "net.socket.write", "net.socket.accept"}) {
      injector.Arm(point, FaultSpec::Error().WithProbability(kChaosRate));
    }
  }

  MetricsRegistry chaos_metrics_;
};

std::vector<UserAction> MakeActions(int rounds, int users) {
  std::vector<UserAction> actions;
  Timestamp t = 0;
  for (int round = 0; round < rounds; ++round) {
    for (UserId u = 1; u <= static_cast<UserId>(users); ++u) {
      actions.push_back(
          Play(u, static_cast<VideoId>(u % 7 + 1), (t += 137)));
    }
  }
  return actions;
}

// --- Streaming layer --------------------------------------------------------

TEST_F(ChaosTest, UnackedTopologyDrainsWithBoundedLossUnderFaults) {
  // 1% bolt crashes, queue drops and spout crashes. Delivery is
  // at-most-once, as deployed, so the invariants are liveness (Join
  // returns, with no deadlock; the alarm in SetUp enforces that) and
  // accounting: the model saw no more than the emitted total.
  ArmStreamFaults();
  FaultInjector::Instance().Arm(
      "stream.spout.next", FaultSpec::Error().WithProbability(kChaosRate));

  FactorStore::Options factor_options;
  factor_options.num_factors = 8;
  FactorStore factors(factor_options);
  HistoryStore history;
  SimTableStore table;

  std::vector<UserAction> actions = MakeActions(/*rounds=*/100, /*users=*/20);
  const std::size_t total = actions.size();

  PipelineDeps deps;
  deps.factors = &factors;
  deps.history = &history;
  deps.sim_table = &table;
  deps.type_resolver = [](VideoId) -> VideoType { return 0; };
  deps.model_config.num_factors = 8;

  auto source = std::make_shared<VectorActionSource>(std::move(actions));
  auto spec = BuildRecommendationTopology(source, deps);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  stream::TopologyOptions options;
  options.max_task_restarts = 1'000'000;
  options.restart_backoff_initial_ms = 1;
  options.restart_backoff_max_ms = 5;
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());  // Liveness: the drain completes.

  // Bounded loss: never more trained than emitted, and 1% chaos cannot
  // wipe out the stream. ComputeMF emits two vectors per SGD step (a
  // queue fault may drop them after they are counted).
  const auto steps = static_cast<std::size_t>(
      (*topo)->metrics().GetCounter("compute_mf.emitted")->value() / 2);
  EXPECT_LE(steps, total);
  EXPECT_GT(steps, total / 2);

  // Faults actually fired and the supervisor actually restarted tasks —
  // at 1% over thousands of evaluations the probability of either
  // staying zero is negligible.
  EXPECT_GT(chaos_metrics_.GetCounter("fault.injected")->value(), 0);
  ExpectStreamFaultsFired();
  EXPECT_GT(
      (*topo)->metrics().GetCounter("topology.task_restarts")->value(), 0);
}

// --- Serving layer ----------------------------------------------------------

TEST_F(ChaosTest, LiveServerSurvivesSocketAndEngineFaults) {
  ArmNetFaults();
  FaultInjector::Instance().Arm(
      "service.recommend", FaultSpec::Error().WithProbability(kChaosRate));

  RecommendationService::Options service_options;
  service_options.engine.model.num_factors = 8;
  RecommendationService service([](VideoId) -> VideoType { return 0; },
                                service_options);
  Timestamp t = 0;
  for (int round = 0; round < 5; ++round) {
    for (UserId user = 1; user <= 5; ++user) {
      service.Observe(Play(user, 100, t += 1000));
      service.Observe(Play(user, 101, t += 1000));
    }
  }

  MetricsRegistry server_metrics;
  RecServer::Options server_options;
  server_options.port = 0;
  server_options.metrics = &server_metrics;
  RecServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  MetricsRegistry client_metrics;
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 60;
  std::atomic<int> ok_count{0};
  std::atomic<int> failed_count{0};
  std::atomic<int> degraded_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, t] {
      RecClient::Options client_options;
      client_options.port = server.port();
      client_options.request_timeout_ms = 2000;
      client_options.retry_backoff_initial_ms = 1;
      client_options.metrics = &client_metrics;
      RecClient client(client_options);
      for (int call = 0; call < kCallsPerClient; ++call) {
        RecRequest request;
        request.user = 999;
        request.top_n = 3;
        request.now = t;
        auto reply = client.RecommendDetailed(request);
        if (reply.ok()) {
          ok_count.fetch_add(1);
          if (reply->degraded()) degraded_count.fetch_add(1);
        } else {
          failed_count.fetch_add(1);  // Retries exhausted: clean error.
        }
      }
    });
  }

  // Sample counters mid-flight to check monotonicity at the end.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::int64_t requests_mid =
      server_metrics.GetCounter("net.server.requests")->value();
  const std::int64_t faults_mid =
      chaos_metrics_.GetCounter("fault.injected")->value();

  for (auto& thread : threads) thread.join();

  // No hang (we got here), no crash, and retries + degraded fallback
  // keep the vast majority of calls succeeding despite 1% faults on
  // every socket operation and the engine itself.
  EXPECT_EQ(ok_count.load() + failed_count.load(), kClients * kCallsPerClient);
  EXPECT_GT(ok_count.load(), kClients * kCallsPerClient * 8 / 10);

  // Monotone metrics: counters only ever grow.
  EXPECT_GE(server_metrics.GetCounter("net.server.requests")->value(),
            requests_mid);
  EXPECT_GE(chaos_metrics_.GetCounter("fault.injected")->value(), faults_mid);
  EXPECT_GE(server_metrics.GetCounter("server.degraded_responses")->value(),
            degraded_count.load());

  // With the chaos off, the same server answers cleanly — it recovered.
  FaultInjector::Instance().DisarmAll();
  RecClient::Options probe_options;
  probe_options.port = server.port();
  RecClient probe(probe_options);
  EXPECT_TRUE(probe.Ping().ok());
  server.Stop();
}

// --- Checkpoint layer --------------------------------------------------------

class ChaosCheckpointTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    dir_ = std::filesystem::temp_directory_path() /
           ("rtrec_chaos_ckpt_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    ChaosTest::TearDown();
  }

  static RecommendationService::Options EngineOnlyOptions() {
    RecommendationService::Options options;
    options.engine.model.num_factors = 8;
    // Pure engine answers so the restored service can be compared
    // head-to-head (hot lists rebuild from live traffic, which the
    // restored instance hasn't seen).
    options.filter.blend_ratio = 0.0;
    options.filter.min_primary_results = 0;
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(ChaosCheckpointTest, FailedSnapshotLeavesPreviousCheckpointServing) {
  RecommendationService service([](VideoId) -> VideoType { return 0; },
                                EngineOnlyOptions());
  Timestamp t = 0;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      for (VideoId v : {10, 11, 12}) {
        service.Observe(Play(u, v, t += 1000));
      }
    }
  }

  Checkpointer::Options options;
  options.directory = dir_.string();
  options.metrics = &chaos_metrics_;
  Checkpointer checkpointer(&service, options);
  ASSERT_TRUE(checkpointer.SnapshotNow().ok());

  // The next snapshot dies on an injected write fault: it must fail
  // cleanly and must NOT damage the snapshot already on disk.
  FaultInjector::Instance().Arm("kvstore.checkpoint.write",
                                FaultSpec::Error().WithOneShot());
  EXPECT_FALSE(checkpointer.SnapshotNow().ok());
  EXPECT_EQ(chaos_metrics_.GetCounter("checkpoint.saves")->value(), 1);
  EXPECT_EQ(chaos_metrics_.GetCounter("checkpoint.failures")->value(), 1);

  RecommendationService restored([](VideoId) -> VideoType { return 0; },
                                 EngineOnlyOptions());
  ASSERT_TRUE(restored.Restore(dir_.string()).ok());

  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  // Two slots: videos 11 and 12 via similarity to the seed (which is
  // never recommended back). The engine fills both, so the merge never
  // backfills from the hot tracker — hot lists rebuild from live
  // traffic and are deliberately not part of the checkpoint.
  request.top_n = 2;
  request.now = t;
  auto before = service.Recommend(request);
  auto after = restored.Recommend(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), 2u);
  EXPECT_EQ(*before, *after);
}

TEST_F(ChaosCheckpointTest, SimulatedKillNineRestartServesFromSnapshot) {
  // In-process analog of the examples/README.md walkthrough: train,
  // snapshot on an interval, "kill" the service without any shutdown
  // path, restore a fresh instance from disk, and serve.
  auto original = std::make_unique<RecommendationService>(
      [](VideoId) -> VideoType { return 0; }, EngineOnlyOptions());
  Timestamp t = 0;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      for (VideoId v : {10, 11, 12}) {
        original->Observe(Play(u, v, t += 1000));
      }
    }
  }

  Checkpointer::Options options;
  options.directory = dir_.string();
  options.interval_ms = 20;
  options.snapshot_on_stop = false;  // A kill -9 gets no final snapshot.
  options.metrics = &chaos_metrics_;
  {
    Checkpointer checkpointer(original.get(), options);
    ASSERT_TRUE(checkpointer.Start().ok());
    // Let at least one periodic snapshot land.
    while (chaos_metrics_.GetCounter("checkpoint.saves")->value() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    checkpointer.Stop();
  }

  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  // Two slots so the engine fills the response by itself (see the
  // sibling test): the un-checkpointed hot tracker never contributes.
  request.top_n = 2;
  request.now = t;
  auto before = original->Recommend(request);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 2u);
  original.reset();  // The "crash": no checkpoint, no goodbye.

  RecommendationService restarted([](VideoId) -> VideoType { return 0; },
                                  EngineOnlyOptions());
  ASSERT_TRUE(restarted.Restore(dir_.string()).ok());
  auto after = restarted.Recommend(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

}  // namespace
}  // namespace rtrec
