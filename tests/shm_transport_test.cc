#include "net/shm_transport.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "common/trace.h"
#include "net/rec_client.h"
#include "net/rec_server.h"
#include "net/wire.h"
#include "obs/span_collector.h"
#include "service/recommendation_service.h"

namespace rtrec {
namespace {

std::int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unique-enough shm object names so parallel ctest invocations and
/// leaked segments from crashed earlier runs cannot collide.
std::string TestShmName(const std::string& tag) {
  return "/rtrec.test-" + tag + "-" + std::to_string(getpid());
}

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

RecommendationService::Options FastService() {
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  return options;
}

// --- Addressing (docs/WIRE_PROTOCOL.md §9.1) -------------------------------

TEST(ShmAddressTest, AcceptedSpellings) {
  EXPECT_EQ(ParseShmAddress("rec://shm/cache0"), "/rtrec.cache0");
  EXPECT_EQ(ParseShmAddress("shm:cache0"), "/rtrec.cache0");
  EXPECT_EQ(ParseShmAddress("shm://a.B_c-9"), "/rtrec.a.B_c-9");
}

TEST(ShmAddressTest, TcpHostsAndBadNamesAreNotShmAddresses) {
  EXPECT_FALSE(ParseShmAddress("127.0.0.1").has_value());
  EXPECT_FALSE(ParseShmAddress("shard3.prod.example.com").has_value());
  EXPECT_FALSE(ParseShmAddress("").has_value());
  EXPECT_FALSE(ParseShmAddress("shm:").has_value());           // empty name
  EXPECT_FALSE(ParseShmAddress("shm:has space").has_value());  // bad char
  EXPECT_FALSE(ParseShmAddress("shm:a/b").has_value());        // bad char
  EXPECT_FALSE(
      ParseShmAddress("shm:" + std::string(64, 'x')).has_value());  // too long
}

// --- Raw transport ---------------------------------------------------------

/// An ShmServer that answers Ping with Pong and echoes nothing else.
struct PingShmServer {
  explicit PingShmServer(const std::string& name,
                         ShmServer::Options options = {}) {
    auto created = ShmServer::Create(
        name, options,
        [](const Frame& frame, ShmServer::ConnState* conn,
           const ShmServer::SendFn& send) {
          (void)conn;
          if (frame.type == MessageType::kPingRequest) {
            send(EncodePongResponse(frame.request_id));
          }
        });
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) server = std::move(*created);
  }
  std::unique_ptr<ShmServer> server;
};

TEST(ShmTransportTest, PingRoundTripOverSegment) {
  const std::string name = TestShmName("ping");
  PingShmServer live(name);
  ASSERT_NE(live.server, nullptr);

  auto client = ShmClient::Attach(name, {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string ping = EncodePingRequest(7);
  ASSERT_TRUE((*client)->Send(ping, SteadyMillis() + 2000).ok());
  auto frame = (*client)->NextFrame(SteadyMillis() + 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MessageType::kPongResponse);
  EXPECT_EQ(frame->request_id, 7u);
}

TEST(ShmTransportTest, AttachToMissingSegmentIsUnavailable) {
  auto client = ShmClient::Attach(TestShmName("nonexistent"), {});
  EXPECT_TRUE(client.status().IsUnavailable())
      << client.status().ToString();
}

TEST(ShmTransportTest, RingWrapsSurviveManyFrames) {
  // Tiny rings force the cursors to wrap many times; every frame must
  // still arrive intact (docs/WIRE_PROTOCOL.md §9.2: free-running
  // cursors, two-part copies at the boundary).
  const std::string name = TestShmName("wrap");
  MetricsRegistry metrics;
  ShmServer::Options options;
  options.max_frame_bytes = 4096;
  options.ring_bytes = 8192;
  options.metrics = &metrics;
  PingShmServer live(name, options);
  ASSERT_NE(live.server, nullptr);

  auto client = ShmClient::Attach(name, {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    ASSERT_TRUE(
        (*client)->Send(EncodePingRequest(i), SteadyMillis() + 2000).ok());
    auto frame = (*client)->NextFrame(SteadyMillis() + 2000);
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->request_id, i);
  }
  EXPECT_GT(metrics.GetCounter("shm.ring.wraps")->value(), 0);
  EXPECT_GT(metrics.GetCounter("shm.ring.polls")->value(), 0);
}

TEST(ShmTransportTest, SlotExhaustionThenCleanCloseFreesTheSlot) {
  const std::string name = TestShmName("slots");
  ShmServer::Options options;
  options.slot_count = 1;
  PingShmServer live(name, options);
  ASSERT_NE(live.server, nullptr);

  auto first = ShmClient::Attach(name, {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = ShmClient::Attach(name, {});
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();

  // Clean close (destructor announces kSlotClosing, §9.4); the server
  // poller reclaims and a fresh attach succeeds.
  first->reset();
  StatusOr<std::unique_ptr<ShmClient>> retry =
      Status::Unavailable("not yet attached");
  const std::int64_t deadline = SteadyMillis() + 5000;
  while (SteadyMillis() < deadline) {
    retry = ShmClient::Attach(name, {});
    if (retry.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_TRUE(
      (*retry)->Send(EncodePingRequest(1), SteadyMillis() + 2000).ok());
  auto frame = (*retry)->NextFrame(SteadyMillis() + 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
}

TEST(ShmTransportTest, ServerReclaimsSlotOfKilledClient) {
  // The kill -9 drill (docs/WIRE_PROTOCOL.md §9.5): a client dies
  // mid-request — partial frame in the ring, slot still Active, no
  // Closing announcement. The server must notice the dead pid, reclaim
  // the slot, and serve the next client.
  const std::string name = TestShmName("kill9");
  ShmServer::Options options;
  options.slot_count = 1;
  PingShmServer live(name, options);
  ASSERT_NE(live.server, nullptr);

  auto victim = ShmClient::Attach(name, {});
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  // Half a ping frame: the server-side decoder sits on a partial.
  const std::string ping = EncodePingRequest(99);
  ASSERT_TRUE((*victim)->TestOnlyWriteRaw(ping.data(), ping.size() / 2));

  // Manufacture a guaranteed-dead pid and hand the slot to it, then
  // abandon the mapping — observationally identical to SIGKILL.
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  (*victim)->TestOnlySetSlotPid(static_cast<std::uint64_t>(child));
  (*victim)->TestOnlyAbandon();

  const std::int64_t deadline = SteadyMillis() + 5000;
  while (live.server->slots_reclaimed() == 0 && SteadyMillis() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(live.server->slots_reclaimed(), 1u);

  // The reclaimed slot serves a fresh client; the dead client's partial
  // frame did NOT poison the decoder (rings were reset).
  StatusOr<std::unique_ptr<ShmClient>> fresh =
      Status::Unavailable("not yet attached");
  while (SteadyMillis() < deadline) {
    fresh = ShmClient::Attach(name, {});
    if (fresh.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(
      (*fresh)->Send(EncodePingRequest(1), SteadyMillis() + 2000).ok());
  auto frame = (*fresh)->NextFrame(SteadyMillis() + 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 1u);
}

TEST(ShmTransportTest, ClientSeesUnavailableWhenServerExits) {
  const std::string name = TestShmName("serverexit");
  auto live = std::make_unique<PingShmServer>(name);
  ASSERT_NE(live->server, nullptr);
  auto client = ShmClient::Attach(name, {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  live.reset();  // Server announces shutdown and unlinks the segment.
  auto frame = (*client)->NextFrame(SteadyMillis() + 2000);
  EXPECT_TRUE(frame.status().IsUnavailable()) << frame.status().ToString();
  EXPECT_TRUE((*client)
                  ->Send(EncodePingRequest(1), SteadyMillis() + 200)
                  .IsUnavailable());
}

// --- RecServer / RecClient over shm ----------------------------------------

/// A full RecServer serving BOTH transports: TCP loopback + shm.
struct DualTransportServer {
  explicit DualTransportServer(const std::string& shm_name)
      : service(OneType(), FastService()) {
    RecServer::Options options;
    options.port = 0;
    options.metrics = &metrics;
    options.shm_name = shm_name;
    server = std::make_unique<RecServer>(&service, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  MetricsRegistry metrics;
  RecommendationService service;
  std::unique_ptr<RecServer> server;
};

TEST(ShmRecServerTest, FullRpcSurfaceOverShm) {
  const std::string name = TestShmName("rpc");
  DualTransportServer live(name);

  RecClient::Options options;
  options.host = "rec://shm/" + name.substr(std::string("/rtrec.").size());
  RecClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  // Hello runs over shm exactly as over TCP (§9: the rings carry
  // ordinary wire frames).
  EXPECT_TRUE(client.trace_propagation_negotiated());

  UserProfile profile;
  profile.registered = true;
  profile.gender = Gender::kMale;
  profile.age = AgeBucket::k18To24;
  EXPECT_TRUE(client.RegisterProfile(1, profile).ok());

  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    EXPECT_TRUE(client.Observe(Play(user, 100, t += 1000)).ok());
  }

  RecRequest request;
  request.user = 999;
  request.top_n = 5;
  request.now = t;
  auto recs = client.Recommend(request);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 100u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Latency histograms are tagged per transport.
  EXPECT_NE(stats->find("shm_rpc_recommend_latency_us"), std::string::npos);

  // Batch over shm.
  std::vector<RecRequest> batch(3, request);
  auto items = client.RecommendBatch(batch);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  for (const auto& item : *items) {
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    EXPECT_FALSE(item.reply.videos.empty());
  }

  EXPECT_GT(live.metrics.GetCounter("shm.ring.polls")->value(), 0);
}

TEST(ShmRecServerTest, TcpAndShmClientsShareOneService) {
  const std::string name = TestShmName("dual");
  DualTransportServer live(name);

  RecClient::Options tcp_options;
  tcp_options.port = live.server->port();
  RecClient tcp_client(tcp_options);

  RecClient::Options shm_options;
  shm_options.host = "shm:" + name.substr(std::string("/rtrec.").size());
  RecClient shm_client(shm_options);

  // An observation ingested over TCP is visible to a Recommend over shm:
  // both transports front the same service.
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    ASSERT_TRUE(tcp_client.Observe(Play(user, 777, t += 1000)).ok());
  }
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  auto recs = shm_client.Recommend(request);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].video, 777u);
}

TEST(ShmRecServerTest, ConcurrentPipelinedCallersOverShm) {
  const std::string name = TestShmName("pipeshm");
  DualTransportServer live(name);
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  RecClient::Options options;
  options.host = "shm:" + name.substr(std::string("/rtrec.").size());
  RecClient client(options);
  ASSERT_TRUE(client.Connect().ok());

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&client, &ok_count, t] {
      for (int call = 0; call < kCallsPerThread; ++call) {
        RecRequest request;
        request.user = 999;
        request.top_n = 3;
        request.now = t;
        auto recs = client.Recommend(request);
        if (recs.ok() && !recs->empty() && (*recs)[0].video == 100) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kCallsPerThread);
}

TEST(ShmRecServerTest, TracePropagationRidesTheShmTransport) {
  // The shm rings carry ordinary wire frames, so the trace extension
  // (docs/WIRE_PROTOCOL.md §2.1) must propagate exactly as over TCP.
  const std::string name = TestShmName("traceshm");
  MetricsRegistry metrics;
  Tracer::Options tracer_options;
  tracer_options.sample_every_n = 0;  // Adoption is the only sampled path.
  tracer_options.metrics = &metrics;
  Tracer tracer(tracer_options);
  obs::SpanCollector::Options span_options;
  span_options.metrics = &metrics;
  obs::SpanCollector spans(span_options);

  RecommendationService service(OneType(), FastService());
  RecServer::Options options;
  options.port = 0;
  options.metrics = &metrics;
  options.shm_name = name;
  options.tracer = &tracer;
  options.spans = &spans;
  RecServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    service.Observe(Play(user, 100, t += 1000));
  }

  RecClient::Options client_options;
  client_options.host = "shm:" + name.substr(std::string("/rtrec.").size());
  RecClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.trace_propagation_negotiated());

  TraceContext trace;
  trace.id = 0x51234ull;
  trace.start_us = Tracer::NowMicros();
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  {
    ScopedTraceContext scope(trace);
    auto recs = client.Recommend(request);
    ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  }

  EXPECT_EQ(metrics.GetCounter("trace.adopted")->value(), 1);
  spans.Flush();
  EXPECT_TRUE(spans.HasTrace(trace.id));
  server.Stop();
}

TEST(ShmRecServerTest, ClusterClientRoutesOverShmAddresses) {
  // A manifest may list shm addresses as shard hosts; the router's
  // per-shard RecClients then ride the same-host transport while the
  // routing/breaker/failover machinery stays transport-blind.
  const std::string name = TestShmName("clustershm");
  DualTransportServer live(name);
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  ClusterClient::Options options;
  ShardAddress shard;
  shard.shard = 0;
  shard.host = "rec://shm/" + name.substr(std::string("/rtrec.").size());
  shard.port = 1;  // Ignored for shm addresses; 0 is not manifest-legal.
  options.manifest.shards = {shard};
  ClusterClient router(options);

  RecRequest request;
  request.user = 42;
  request.top_n = 3;
  request.now = t;
  auto reply = router.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->videos.empty());
  EXPECT_EQ(reply->videos[0].video, 100u);
}

}  // namespace
}  // namespace rtrec
