#include "cluster/cluster_client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/manifest.h"
#include "common/trace.h"
#include "net/rec_server.h"
#include "obs/span_collector.h"
#include "service/recommendation_service.h"

namespace rtrec {
namespace {

using Clock = std::chrono::steady_clock;

UserAction Play(UserId user, VideoId video, Timestamp t) {
  UserAction action;
  action.user = user;
  action.video = video;
  action.type = ActionType::kPlayTime;
  action.view_fraction = 1.0;
  action.time = t;
  return action;
}

VideoTypeResolver OneType() {
  return [](VideoId) -> VideoType { return 0; };
}

RecommendationService::Options SmallService(MetricsRegistry* metrics) {
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  options.metrics = metrics;
  return options;
}

/// One in-process shard: its own service and server, the same pairing a
/// `serve --shard-id` process holds.
struct Shard {
  Shard()
      : service(std::make_unique<RecommendationService>(
            OneType(), SmallService(&metrics))) {
    Start(0);
  }

  void Start(std::uint16_t bind_port) {
    RecServer::Options options;
    options.port = bind_port;
    options.num_workers = 2;
    options.metrics = &metrics;
    options.tracer = tracer.get();
    options.spans = spans.get();
    server = std::make_unique<RecServer>(service.get(), options);
    Status started = server->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    port = server->port();  // Remembered across Stop (which clears it).
  }

  /// Restart this shard with span recording attached so tests can
  /// inspect what the wire delivered (adopted trace ids, hop numbers).
  void EnableTracing() {
    Tracer::Options tracer_options;
    tracer_options.sample_every_n = 0;  // Only adopted contexts record.
    tracer_options.metrics = &metrics;
    tracer = std::make_unique<Tracer>(tracer_options);
    obs::SpanCollector::Options span_options;
    span_options.metrics = &metrics;
    spans = std::make_unique<obs::SpanCollector>(span_options);
    server->Stop();
    Start(port);
  }

  /// kill -9 equivalent for an in-process shard: connections die, the
  /// port goes dark.
  void Kill() { server->Stop(); }

  /// Restart on the same address with a fresh service restored from
  /// `checkpoint_dir` — the shard-handoff path a supervised restart
  /// takes.
  void Restart(const std::string& checkpoint_dir) {
    server.reset();
    service = std::make_unique<RecommendationService>(
        OneType(), SmallService(&metrics));
    Status restored = service->Restore(checkpoint_dir);
    ASSERT_TRUE(restored.ok()) << restored.ToString();
    Start(port);
  }

  /// Actions this shard's service has applied ("service.actions").
  std::int64_t actions_observed() {
    return metrics.GetCounter("service.actions")->value();
  }

  MetricsRegistry metrics;
  std::unique_ptr<RecommendationService> service;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<obs::SpanCollector> spans;
  std::unique_ptr<RecServer> server;
  std::uint16_t port = 0;
};

/// A 2-shard in-process cluster plus the manifest describing it.
struct Cluster {
  Cluster() {
    std::string text;
    for (int i = 0; i < 2; ++i) {
      text += "shard " + std::to_string(i) + " 127.0.0.1 " +
              std::to_string(shards[i].server->port()) + "\n";
    }
    auto parsed = ClusterManifest::Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) manifest = *std::move(parsed);
  }

  /// Router options tuned for test speed: quick failover, short breaker
  /// cooldown so recovery inside a test window is observable.
  ClusterClient::Options RouterOptions(MetricsRegistry* metrics = nullptr) {
    ClusterClient::Options options;
    options.manifest = manifest;
    options.breaker_failure_threshold = 2;
    options.breaker_cooldown_ms = 100;
    options.client.connect_timeout_ms = 200;
    options.client.request_timeout_ms = 1'000;
    options.client.max_retries = 1;
    options.client.retry_backoff_initial_ms = 2;
    options.client.retry_backoff_max_ms = 20;
    options.client.total_deadline_ms = 1'500;
    options.metrics = metrics;
    return options;
  }

  /// A user id owned by `shard` under the manifest's ring.
  UserId UserOwnedBy(ShardId shard) {
    const HashRing ring = manifest.Ring();
    for (UserId user = 1; user < 10'000; ++user) {
      if (*ring.OwnerOfUser(user) == shard) return user;
    }
    ADD_FAILURE() << "no user maps to shard " << shard;
    return 0;
  }

  Shard shards[2];
  ClusterManifest manifest;
};

/// Scratch directory removed on scope exit.
struct TempDir {
  TempDir() {
    char name[] = "/tmp/rtrec_cluster_test_XXXXXX";
    path = mkdtemp(name);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// ---------------------------------------------------------------------------

TEST(ClusterClientTest, RoutesEachUserToItsOwningShard) {
  Cluster cluster;
  ClusterClient client(cluster.RouterOptions());
  // Writes land on the owner: observe through the router, then check
  // which shard's service actually trained.
  const UserId user0 = cluster.UserOwnedBy(0);
  const UserId user1 = cluster.UserOwnedBy(1);
  ASSERT_TRUE(client.Observe(Play(user0, 10, 1'000)).ok());
  ASSERT_TRUE(client.Observe(Play(user0, 11, 2'000)).ok());
  ASSERT_TRUE(client.Observe(Play(user1, 10, 3'000)).ok());
  ASSERT_TRUE(client.Observe(Play(user1, 12, 4'000)).ok());
  EXPECT_EQ(client.OwnerOf(user0), 0u);
  EXPECT_EQ(client.OwnerOf(user1), 1u);
  // Per-key single-writer across processes: each shard applied exactly
  // its own users' actions, nothing leaked to the other.
  EXPECT_EQ(cluster.shards[0].actions_observed(), 2);
  EXPECT_EQ(cluster.shards[1].actions_observed(), 2);
}

TEST(ClusterClientTest, FailoverAnswerIsDegradedAndHealsAfterRestart) {
  Cluster cluster;
  MetricsRegistry metrics;
  ClusterClient client(cluster.RouterOptions(&metrics));
  const UserId victim_user = cluster.UserOwnedBy(1);
  ASSERT_TRUE(client.Observe(Play(victim_user, 10, 1'000)).ok());

  RecRequest request;
  request.user = victim_user;
  request.top_n = 5;
  request.now = 10'000;
  auto before = client.RecommendDetailed(request);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->degraded());

  cluster.shards[1].Kill();
  auto during = client.RecommendDetailed(request);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(during->degraded())
      << "a failover answer must carry the DEGRADED flag";
  EXPECT_GT(metrics.GetCounter("cluster.router.failovers")->value(), 0);

  cluster.shards[1].Start(cluster.shards[1].port);
  ASSERT_TRUE(client.ShardHealthy(1));
  auto after = client.RecommendDetailed(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->degraded());
}

TEST(ClusterClientTest, FailoverRetryCarriesTheHopNumber) {
  // A failover answer is the second hop of the same trace: the router
  // re-stamps the propagated context with hop=1 before retrying, and
  // the fallback shard records that hop on the spans it commits.
  Cluster cluster;
  const UserId user = cluster.UserOwnedBy(0);
  cluster.shards[1].EnableTracing();  // The fallback for shard-0 users.
  ClusterClient client(cluster.RouterOptions());
  cluster.shards[0].Kill();

  TraceContext trace;
  trace.id = 0xFA170FE2ull;
  trace.start_us = Tracer::NowMicros();
  RecRequest request;
  request.user = user;
  request.top_n = 3;
  request.now = 10'000;
  {
    ScopedTraceContext scope(trace);
    auto reply = client.RecommendDetailed(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->degraded());
  }

  obs::SpanCollector& spans = *cluster.shards[1].spans;
  spans.Flush();
  EXPECT_TRUE(spans.HasTrace(trace.id))
      << "the fallback shard should have adopted the propagated context";
  const std::string slow = spans.ExportSlowJson();
  EXPECT_NE(slow.find("\"trace_id\":\"00000000fa170fe2\""), std::string::npos)
      << slow;
  EXPECT_NE(slow.find("\"hop\":1"), std::string::npos)
      << "failover spans must carry hop=1: " << slow;
  EXPECT_EQ(
      cluster.shards[1].metrics.GetCounter("trace.adopted")->value(), 1);
}

TEST(ClusterClientTest, AllShardsDownSurfacesUnavailable) {
  Cluster cluster;
  ClusterClient client(cluster.RouterOptions());
  cluster.shards[0].Kill();
  cluster.shards[1].Kill();
  RecRequest request;
  request.user = 1;
  request.top_n = 5;
  auto reply = client.RecommendDetailed(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsUnavailable());
  EXPECT_FALSE(client.Healthy());
}

TEST(ClusterClientTest, BreakerOpensAndRecoversViaProbe) {
  Cluster cluster;
  MetricsRegistry metrics;
  ClusterClient client(cluster.RouterOptions(&metrics));
  const UserId victim_user = cluster.UserOwnedBy(0);
  cluster.shards[0].Kill();

  RecRequest request;
  request.user = victim_user;
  request.top_n = 5;
  // Enough calls to trip the breaker (threshold 2), all answered via
  // failover.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.RecommendDetailed(request).ok());
  }
  EXPECT_GT(metrics.GetCounter("cluster.router.breaker_trips")->value(), 0);
  EXPECT_FALSE(client.ShardHealthy(0));
  EXPECT_GT(metrics.GetCounter("cluster.router.probe_failure")->value(), 0);

  cluster.shards[0].Start(cluster.shards[0].port);
  ASSERT_TRUE(client.ShardHealthy(0));
  EXPECT_GT(metrics.GetCounter("cluster.router.probe_success")->value(), 0);
  auto reply = client.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->degraded());
}

TEST(ClusterClientTest, MergedScrapeCarriesClusterHeaderAndShardSections) {
  Cluster cluster;
  ClusterClient client(cluster.RouterOptions());
  RecRequest request;
  request.user = 1;
  request.top_n = 5;
  ASSERT_TRUE(client.Observe(Play(1, 10, 1'000)).ok());
  ASSERT_TRUE(client.RecommendDetailed(request).ok());
  auto scrape = client.Stats();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_NE(scrape->find("cluster_shards 2"), std::string::npos);
  EXPECT_NE(scrape->find("cluster_shards_healthy 2"), std::string::npos);
  EXPECT_NE(scrape->find("cluster_shard_up{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(scrape->find("shard 0 @"), std::string::npos);
  EXPECT_NE(scrape->find("shard 1 @"), std::string::npos);
  // Summed request counter from the per-shard scrapes.
  EXPECT_NE(scrape->find("net_server_requests_total"), std::string::npos);
}

// The satellite chaos scenario: a 2-shard in-process cluster, one shard
// killed and restarted mid-traffic. Bounded error rate, DEGRADED
// responses during the outage, zero errors after recovery.
TEST(ClusterChaosTest, ShardKillAndRestartMidTraffic) {
  Cluster cluster;
  TempDir checkpoints;
  MetricsRegistry metrics;

  std::atomic<bool> stop{false};
  std::atomic<int> phase{0};  // 0 steady, 1 outage, 2 recovered.
  std::atomic<std::int64_t> ok[3] = {};
  std::atomic<std::int64_t> errors[3] = {};
  std::atomic<std::int64_t> degraded[3] = {};

  std::thread loadgen([&] {
    ClusterClient client(cluster.RouterOptions(&metrics));
    RecRequest request;
    request.top_n = 5;
    Timestamp t = 1'000'000;
    int seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int p = phase.load(std::memory_order_relaxed);
      const UserId user = 1 + seq % 16;
      if (seq % 4 == 3) {
        const Status status = client.Observe(Play(user, 10 + seq % 3,
                                                  t += 1'000));
        (status.ok() ? ok : errors)[p].fetch_add(1,
                                                 std::memory_order_relaxed);
      } else {
        request.user = user;
        request.now = t;
        auto reply = client.RecommendDetailed(request);
        if (reply.ok()) {
          ok[p].fetch_add(1, std::memory_order_relaxed);
          if (reply->degraded()) {
            degraded[p].fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          errors[p].fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++seq;
    }
  });
  // A fatal assert below returns from the test body early; this guard
  // keeps the loadgen from outliving it (std::thread dtor terminates).
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~StopAndJoin() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } joiner{stop, loadgen};

  // Steady window.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Snapshot the victim's slice, then kill it mid-traffic.
  const ShardId victim = 1;
  ASSERT_TRUE(
      cluster.shards[victim].service->Checkpoint(checkpoints.path).ok());
  phase.store(1);
  cluster.shards[victim].Kill();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Restart from the checkpoint (shard handoff) and wait until the
  // loadgen's router sees it healthy again before opening the clean
  // window (its breaker cooldown is 100ms).
  cluster.shards[victim].Restart(checkpoints.path);
  ClusterClient probe(cluster.RouterOptions());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!probe.ShardHealthy(victim) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(probe.ShardHealthy(victim)) << "victim never recovered";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  phase.store(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  loadgen.join();

  // Steady window: traffic flowed, nothing degraded.
  EXPECT_GT(ok[0].load(), 0);
  EXPECT_EQ(errors[0].load(), 0);

  // Outage window: traffic kept flowing (failover), the victim's share
  // was answered DEGRADED, and the error rate stayed bounded — the
  // other shard was up the whole time, so nothing should have errored.
  EXPECT_GT(ok[1].load(), 0);
  EXPECT_GT(degraded[1].load(), 0)
      << "outage traffic must carry DEGRADED failover answers";
  const double outage_total =
      static_cast<double>(ok[1].load() + errors[1].load());
  EXPECT_LE(errors[1].load(), outage_total * 0.05)
      << "outage error rate not bounded";

  // Post-recovery window: whole cluster, zero errors.
  EXPECT_GT(ok[2].load(), 0);
  EXPECT_EQ(errors[2].load(), 0) << "errors after recovery";

  // The restarted shard serves its restored slice: a victim-owned user
  // trained before the kill gets a non-degraded answer.
  ClusterClient client(cluster.RouterOptions());
  RecRequest request;
  request.user = cluster.UserOwnedBy(victim);
  request.top_n = 5;
  request.now = 2'000'000;
  auto reply = client.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->degraded());
}

}  // namespace
}  // namespace rtrec
