#include "net/rec_server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/trace.h"
#include "net/rec_client.h"
#include "net/socket.h"
#include "net/stats_server.h"
#include "net/wire.h"
#include "obs/span_collector.h"

namespace rtrec {
namespace {

/// Disarms every fault point on scope exit, so a failing ASSERT cannot
/// leak an armed fault into later tests.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Instance().DisarmAll(); }
};

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

RecommendationService::Options WithMetrics(RecommendationService::Options o,
                                           MetricsRegistry* metrics) {
  o.metrics = metrics;
  return o;
}

/// A service + running server on an ephemeral loopback port. The service
/// shares the server's registry, so quality.* metrics are live too.
struct LiveServer {
  explicit LiveServer(RecServer::Options options = {})
      : service(OneType(), WithMetrics(FastService(), &metrics)) {
    options.port = 0;
    options.metrics = &metrics;
    server = std::make_unique<RecServer>(&service, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  RecClient::Options ClientOptions() const {
    RecClient::Options options;
    options.port = server->port();
    options.request_timeout_ms = 5000;
    return options;
  }

  MetricsRegistry metrics;
  RecommendationService service;
  std::unique_ptr<RecServer> server;
};

/// Raw-socket peer for protocol-level tests: writes arbitrary bytes,
/// reads one frame (or EOF) with a deadline.
struct RawPeer {
  explicit RawPeer(std::uint16_t port) {
    auto connected = ConnectTcp("127.0.0.1", port, 1000);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    if (connected.ok()) fd = std::move(*connected);
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(write(fd.get(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until one frame decodes. EOF surfaces as Unavailable.
  StatusOr<Frame> ReadFrame(int timeout_ms = 2000) {
    char buf[4096];
    while (true) {
      StatusOr<Frame> frame = decoder.Next();
      if (frame.ok() || !frame.status().IsNotFound()) return frame;
      RTREC_RETURN_IF_ERROR(WaitReady(fd.get(), /*for_read=*/true,
                                      timeout_ms));
      ssize_t n = read(fd.get(), buf, sizeof(buf));
      if (n == 0) return Status::Unavailable("EOF");
      if (n < 0) return Status::Internal("read failed");
      decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  /// True if the server closes the connection within the deadline.
  bool WaitForClose(int timeout_ms = 2000) {
    StatusOr<Frame> frame = ReadFrame(timeout_ms);
    return !frame.ok() && frame.status().message() == "EOF";
  }

  UniqueFd fd;
  FrameDecoder decoder;
};

// ---------------------------------------------------------------------------

TEST(RecServerTest, PingPongOverLoopback) {
  LiveServer live;
  RecClient client(live.ClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(live.metrics.GetCounter("net.server.connections.accepted")->value(),
            1);
}

TEST(RecServerTest, FullRpcSurfaceOverWire) {
  LiveServer live;
  RecClient client(live.ClientOptions());

  UserProfile profile;
  profile.registered = true;
  profile.gender = Gender::kMale;
  profile.age = AgeBucket::k18To24;
  EXPECT_TRUE(client.RegisterProfile(1, profile).ok());

  // Observations over the wire heat videos 100/101 globally.
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    EXPECT_TRUE(client.Observe(Play(user, 100, t += 1000)).ok());
    EXPECT_TRUE(client.Observe(Play(user, 101, t += 1000)).ok());
  }

  // A cold user still gets a page (hot-video fallback), like the
  // in-process service contract.
  RecRequest request;
  request.user = 999;
  request.top_n = 5;
  request.now = t;
  auto recs = client.Recommend(request);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_TRUE((*recs)[0].video == 100 || (*recs)[0].video == 101);
}

TEST(RecServerTest, ConcurrentClientsAllGetCorrectResponses) {
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 50;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&live, &ok_count] {
      RecClient client(live.ClientOptions());
      for (int call = 0; call < kCallsPerClient; ++call) {
        RecRequest request;
        request.user = 999;
        request.top_n = 3;
        request.now = 100000;
        auto recs = client.Recommend(request);
        if (recs.ok() && !recs->empty() && (*recs)[0].video == 100) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kCallsPerClient);
  EXPECT_EQ(live.metrics.GetCounter("net.server.requests")->value(),
            kClients * kCallsPerClient);
}

TEST(RecServerTest, AdmissionControlShedsWithTypedOverloaded) {
  RecServer::Options options;
  options.max_in_flight = 1;
  options.num_workers = 4;
  LiveServer live(options);
  FaultGuard guard;
  // Hold the slot measurably long inside each admitted Recommend.
  FaultInjector::Instance().Arm("service.recommend", FaultSpec::Latency(3));

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 30;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      RecClient client(live.ClientOptions());
      for (int call = 0; call < kCallsPerClient; ++call) {
        RecRequest request;
        request.user = 1;
        request.top_n = 3;
        auto recs = client.Recommend(request);
        if (recs.ok()) {
          ok_count.fetch_add(1);
        } else if (recs.status().IsUnavailable() &&
                   recs.status().message().find("OVERLOADED") !=
                       std::string::npos) {
          shed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Excess load must shed with the typed error — and the shed counter
  // must agree — while admitted requests still succeed.
  EXPECT_GT(shed_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_EQ(live.metrics.GetCounter("net.server.requests.shed")->value(),
            shed_count.load());
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients * kCallsPerClient);
  EXPECT_GT(FaultInjector::Instance().InjectedCount("service.recommend"), 0u);
}

TEST(RecServerTest, TruncatedFrameGetsTypedErrorAndDisconnect) {
  LiveServer live;
  RawPeer peer(live.server->port());
  // Length prefix promises 2 MiB (over the 1 MiB default cap): the
  // stream is structurally corrupt.
  peer.Send(std::string("\x00\x20\x00\x00", 4));
  StatusOr<Frame> frame = peer.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  auto error = DecodeErrorResponse(*frame);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kMalformedFrame);
  EXPECT_TRUE(peer.WaitForClose());
  EXPECT_GE(live.metrics.GetCounter("net.server.protocol_errors")->value(), 1);
}

TEST(RecServerTest, GarbageBodyGetsTypedErrorAndConnectionSurvives) {
  LiveServer live;
  RawPeer peer(live.server->port());
  Frame garbage;
  garbage.type = MessageType::kRecommendRequest;
  garbage.request_id = 42;
  garbage.body = "not a recommend request";
  std::string bytes;
  AppendFrame(garbage, &bytes);
  peer.Send(bytes);

  StatusOr<Frame> frame = peer.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  EXPECT_EQ(frame->request_id, 42u);
  auto error = DecodeErrorResponse(*frame);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kMalformedFrame);

  // Framing stayed intact, so the same connection keeps working.
  peer.Send(EncodePingRequest(43));
  StatusOr<Frame> pong = peer.ReadFrame();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, MessageType::kPongResponse);
  EXPECT_EQ(pong->request_id, 43u);
}

TEST(RecServerTest, BadVersionGetsTypedErrorAndDisconnect) {
  LiveServer live;
  // 2 is the only version; the retired 1 is as foreign as a future 9.
  for (char version : {1, 9}) {
    RawPeer peer(live.server->port());
    std::string bytes = EncodePingRequest(7);
    bytes[4] = version;
    peer.Send(bytes);
    StatusOr<Frame> frame = peer.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto error = DecodeErrorResponse(*frame);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kBadVersion) << int{version};
    EXPECT_TRUE(peer.WaitForClose()) << int{version};
  }
}

TEST(RecServerTest, UnknownTypeGetsTypedErrorAndConnectionSurvives) {
  LiveServer live;
  RawPeer peer(live.server->port());
  Frame odd;
  odd.type = static_cast<MessageType>(0x7F);
  odd.request_id = 5;
  std::string bytes;
  AppendFrame(odd, &bytes);
  peer.Send(bytes);
  StatusOr<Frame> frame = peer.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto error = DecodeErrorResponse(*frame);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kUnknownType);

  peer.Send(EncodePingRequest(6));
  StatusOr<Frame> pong = peer.ReadFrame();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, MessageType::kPongResponse);
}

TEST(RecServerTest, IdleConnectionsAreReaped) {
  RecServer::Options options;
  options.idle_timeout_ms = 100;
  LiveServer live(options);
  RawPeer peer(live.server->port());
  // Say nothing; the sweep (every epoll tick) must close us.
  EXPECT_TRUE(peer.WaitForClose(/*timeout_ms=*/3000));
  EXPECT_GE(
      live.metrics.GetCounter("net.server.connections.idle_closed")->value(),
      1);
}

TEST(RecServerTest, CleanShutdownWithConnectionsOpen) {
  LiveServer live;
  std::vector<std::unique_ptr<RecClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = std::make_unique<RecClient>(live.ClientOptions());
    ASSERT_TRUE(client->Ping().ok());
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(live.metrics.GetGauge("net.server.connections.active")->value(),
            4);
  live.server->Stop();  // Must return promptly despite open connections.
  EXPECT_FALSE(live.server->running());
  EXPECT_EQ(live.metrics.GetGauge("net.server.connections.active")->value(),
            0);
  // Clients observe a dead server, not a hang.
  RecClient::Options no_retry = live.ClientOptions();
  no_retry.auto_reconnect = false;
  no_retry.connect_timeout_ms = 200;
  RecClient probe(no_retry);
  EXPECT_FALSE(probe.Ping().ok());
}

TEST(RecServerTest, StopIsIdempotentAndRestartWorks) {
  LiveServer live;
  const std::uint16_t first_port = live.server->port();
  live.server->Stop();
  live.server->Stop();  // Second stop is a no-op.
  Status restarted = live.server->Start();
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  EXPECT_NE(live.server->port(), 0);
  (void)first_port;  // Ephemeral: the new port may or may not differ.
  RecClient client(live.ClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  live.server->Stop();
}

TEST(RecServerTest, ByteAtATimeRequestAndOneByteWindowResponse) {
  // Exercises both directions of incremental framing: the server must
  // reassemble a request that arrives one byte per segment, and the
  // response must decode through a 1-byte read window on our side.
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  RawPeer peer(live.server->port());
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  const std::string bytes = EncodeRecommendRequest(77, request);
  for (char byte : bytes) {
    peer.Send(std::string(1, byte));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  StatusOr<Frame> frame = peer.decoder.Next();
  while (!frame.ok() && frame.status().IsNotFound()) {
    ASSERT_TRUE(WaitReady(peer.fd.get(), /*for_read=*/true, 2000).ok());
    char byte = 0;
    ASSERT_EQ(read(peer.fd.get(), &byte, 1), 1);  // 1-byte window.
    peer.decoder.Append(std::string_view(&byte, 1));
    frame = peer.decoder.Next();
  }
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MessageType::kRecommendResponse);
  EXPECT_EQ(frame->request_id, 77u);
  auto reply = DecodeRecommendReply(*frame);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->degraded());
  ASSERT_FALSE(reply->videos.empty());
  EXPECT_EQ(reply->videos[0].video, 100u);
}

TEST(RecServerTest, EngineFailureServesDegradedFallback) {
  FaultGuard guard;
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
    live.service.Observe(Play(user, 101, t += 1000));
  }

  FaultInjector::Instance().Arm("service.recommend",
                                FaultSpec::Error(StatusCode::kInternal));
  RecClient client(live.ClientOptions());
  RecRequest request;
  request.user = 999;
  request.top_n = 5;
  request.now = t;
  auto reply = client.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->degraded());
  ASSERT_FALSE(reply->videos.empty());
  EXPECT_TRUE(reply->videos[0].video == 100 || reply->videos[0].video == 101);
  EXPECT_GE(live.metrics.GetCounter("server.degraded_responses")->value(), 1);

  // Engine healthy again: answers come from the engine, unflagged.
  FaultInjector::Instance().DisarmAll();
  auto healthy = client.RecommendDetailed(request);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded());
}

TEST(RecServerTest, DeadlineBreachServesDegradedFallback) {
  FaultGuard guard;
  RecServer::Options options;
  options.recommend_deadline_ms = 5;
  LiveServer live(options);
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  FaultInjector::Instance().Arm("service.recommend", FaultSpec::Latency(60));
  RecClient client(live.ClientOptions());
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  auto reply = client.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->degraded());
  ASSERT_FALSE(reply->videos.empty());
  EXPECT_GE(live.metrics.GetCounter("net.server.deadline_breaches")->value(),
            1);
}

TEST(RecServerTest, BreakerTripsAndServesFallbackDuringCooldown) {
  FaultGuard guard;
  RecServer::Options options;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_ms = 60'000;  // Stays open for the whole test.
  LiveServer live(options);
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }

  FaultInjector::Instance().Arm("service.recommend",
                                FaultSpec::Error(StatusCode::kInternal));
  RecClient client(live.ClientOptions());
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  for (int i = 0; i < 3; ++i) {
    auto reply = client.RecommendDetailed(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->degraded());
  }
  EXPECT_EQ(live.metrics.GetCounter("net.server.breaker_trips")->value(), 1);

  // Engine is healthy again, but the breaker is open: requests go
  // straight to the fallback without touching the engine.
  FaultInjector::Instance().DisarmAll();
  auto reply = client.RecommendDetailed(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->degraded());
}

TEST(RecServerTest, ClientRetriesTransientSocketFaults) {
  FaultGuard guard;
  LiveServer live;
  // The next server-side socket read fails once, killing the connection
  // mid-conversation; the client's retry over a fresh connection must
  // absorb it transparently.
  FaultInjector::Instance().Arm("net.socket.read",
                                FaultSpec::Error().WithOneShot());
  MetricsRegistry client_metrics;
  RecClient::Options client_options = live.ClientOptions();
  client_options.metrics = &client_metrics;
  RecClient client(client_options);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (client.Ping().ok()) ++ok;
  }
  EXPECT_EQ(ok, 10);  // The retry absorbed the injected failure.
  EXPECT_GE(client_metrics.GetCounter("client.retries")->value(), 1);
  EXPECT_EQ(FaultInjector::Instance().InjectedCount("net.socket.read"), 1u);
}

TEST(RecServerTest, ClientReconnectsAcrossServerRestart) {
  RecServer::Options options;
  LiveServer live(options);
  RecClient::Options client_options = live.ClientOptions();
  RecClient client(client_options);
  ASSERT_TRUE(client.Ping().ok());

  live.server->Stop();
  ASSERT_TRUE(live.server->Start().ok());
  // The restarted server binds a fresh ephemeral port, which usually
  // differs. Either way the old client must fail cleanly (one reconnect
  // attempt, no hang); if the port survived, the retry succeeds
  // transparently.
  if (live.server->port() == client_options.port) {
    EXPECT_TRUE(client.Ping().ok());
  } else {
    EXPECT_FALSE(client.Ping().ok());
    RecClient fresh(live.ClientOptions());
    EXPECT_TRUE(fresh.Ping().ok());
  }
}

TEST(RecServerTest, ConnectRetriesUntilTheServerAppears) {
  // Reserve an address, then start the server on it only after the
  // client has begun connecting: an eager Connect() under the retry
  // policy must ride out the gap instead of surfacing the first refusal.
  std::uint16_t port = 0;
  {
    RecServer::Options options;
    LiveServer reserve(options);
    port = reserve.server->port();
    reserve.server->Stop();
  }  // Port free but recently bound — reuse is near-certain and racy
     // only against unrelated processes.

  LiveServer live;  // Target service; re-bound below on the known port.
  live.server->Stop();
  RecServer late_server(&live.service, [&] {
    RecServer::Options options;
    options.port = port;
    return options;
  }());

  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Status started = late_server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  });

  RecClient::Options client_options;
  client_options.port = port;
  client_options.max_retries = -1;  // No attempt cap: deadline-bound.
  client_options.retry_backoff_initial_ms = 10;
  client_options.total_deadline_ms = 5'000;
  RecClient client(client_options);
  const Status connected = client.Connect();
  starter.join();
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(RecServerTest, HealthyAnswersTrueOnALiveServer) {
  LiveServer live;
  RecClient::Options client_options = live.ClientOptions();
  client_options.auto_reconnect = false;  // Probes never ride retries.
  RecClient client(client_options);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.Healthy(500));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 1'000) << "cold probe must stay within 2x";
  // Warm path: connection reused, same answer.
  EXPECT_TRUE(client.Healthy(500));
}

TEST(RecServerTest, HealthyAnswersFalseWithinTheDeadlineOnADeadPort) {
  // Bind-and-release an ephemeral port so nothing listens on it.
  std::uint16_t dead_port = 0;
  {
    RecServer::Options options;
    LiveServer reserve(options);
    dead_port = reserve.server->port();
    reserve.server->Stop();
  }
  RecClient::Options client_options;
  client_options.port = dead_port;
  RecClient client(client_options);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Healthy(200));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // One attempt, connect+request each bounded by the deadline: a dead
  // target answers "dead" fast, never after a retry storm.
  EXPECT_LT(elapsed.count(), 1'000);
}

TEST(RecServerTest, StatsRpcReturnsWellFormedPrometheusText) {
  LiveServer live;
  RecClient client(live.ClientOptions());
  ASSERT_TRUE(client.Ping().ok());

  StatusOr<std::string> first = client.Stats();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Well-formed text exposition: TYPE headers, counters with _total,
  // dots sanitized to underscores, trailing newline (whole lines only).
  EXPECT_NE(first->find("# TYPE net_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(first->find("net_server_bytes_in_total "), std::string::npos);
  EXPECT_EQ(first->find("net.server."), std::string::npos);
  ASSERT_FALSE(first->empty());
  EXPECT_EQ(first->back(), '\n');

  // Counters must be monotone across scrapes; the traffic in between
  // guarantees strict growth for the request counter.
  ASSERT_TRUE(client.Ping().ok());
  RecRequest request;
  request.user = 1;
  request.top_n = 5;
  (void)client.Recommend(request);
  StatusOr<std::string> second = client.Stats();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  auto value_of = [](const std::string& text, const std::string& name) {
    const std::size_t pos = text.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << name;
    if (pos == std::string::npos) return -1.0;
    return std::atof(text.c_str() + pos + 1 + name.size() + 1);
  };
  const double before = value_of(*first, "net_server_requests_total");
  const double after = value_of(*second, "net_server_requests_total");
  EXPECT_GT(after, before);
}

TEST(RecServerTest, StatsRpcBypassesAdmissionControl) {
  RecServer::Options options;
  options.max_in_flight = 1;
  options.num_workers = 2;
  LiveServer live(options);
  FaultGuard guard;
  FaultInjector::Instance().Arm("service.recommend", FaultSpec::Latency(200));

  // Saturate the single in-flight slot with a slow Recommend...
  std::thread slow([&] {
    RecClient client(live.ClientOptions());
    RecRequest request;
    request.user = 1;
    request.top_n = 5;
    (void)client.Recommend(request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...and scrape while it holds the gate: Stats must still answer.
  RecClient client(live.ClientOptions());
  StatusOr<std::string> stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  slow.join();
  EXPECT_GT(FaultInjector::Instance().InjectedCount("service.recommend"), 0u);
}

TEST(RecServerTest, StatsRpcRoundTripsPayloadLargerThanSocketBuffer) {
  LiveServer live;
  // Inflate the registry well past the 64 KiB socket read buffers used
  // by both client and server: ~1500 counters with ~130-byte names give
  // a scrape of several hundred KiB (still under the 1 MiB frame cap).
  const std::string padding(100, 'x');
  for (int i = 0; i < 1500; ++i) {
    live.metrics
        .GetCounter("bulk.metric." + padding + "." + std::to_string(i))
        ->Increment(i);
  }

  RecClient client(live.ClientOptions());
  StatusOr<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->size(), 128u * 1024u);
  // The frame arrived whole: first and last bulk metrics present, and
  // the text still ends on a full line.
  EXPECT_NE(stats->find("bulk_metric_" + padding + "_0_total 0\n"),
            std::string::npos);
  EXPECT_NE(stats->find("bulk_metric_" + padding + "_1499_total 1499\n"),
            std::string::npos);
  EXPECT_EQ(stats->back(), '\n');
}

TEST(RecServerTest, QualityMetricsVisibleViaStatsRpc) {
  LiveServer live;
  // The service was built with a metrics registry, so the quality
  // section is pre-registered even before any traffic.
  RecClient client(live.ClientOptions());
  StatusOr<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("quality_progressive_logloss "), std::string::npos);
  EXPECT_NE(stats->find("quality_online_recall_10 "), std::string::npos);
  EXPECT_NE(stats->find("quality_ctr_overall "), std::string::npos);
  EXPECT_NE(stats->find("quality_ctr_degraded "), std::string::npos);
  EXPECT_NE(stats->find("quality_ctr_arm_0 "), std::string::npos);
  EXPECT_NE(stats->find("quality_alerts_logloss_total "), std::string::npos);
}

// --- Hello, pipelining (docs/WIRE_PROTOCOL.md §5-§6) -------------------------

TEST(RecServerTest, V2NegotiatedAtConnect) {
  LiveServer live;
  RecClient client(live.ClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.trace_propagation_negotiated());
  EXPECT_EQ(live.metrics.GetCounter("net.v2.hellos")->value(), 1);
  // The handshake is connection setup, not traffic (§5).
  EXPECT_EQ(live.metrics.GetCounter("net.server.requests")->value(), 1);
}

TEST(RecServerTest, PipelineNeedsNoHello) {
  // Hello only negotiates features (§5): a peer that never sends one may
  // pipeline from its first frame.
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }
  RawPeer peer(live.server->port());
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  peer.Send(EncodeRecommendRequest(9, request) + EncodePingRequest(10));
  std::map<std::uint64_t, Frame> answers;
  for (int i = 0; i < 2; ++i) {
    StatusOr<Frame> frame = peer.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    answers[frame->request_id] = *frame;
  }
  ASSERT_EQ(answers.count(9), 1u);
  ASSERT_EQ(answers[9].type, MessageType::kRecommendResponse);
  auto reply = DecodeRecommendReply(answers[9]);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->videos.empty());
  EXPECT_EQ(reply->videos[0].video, 100u);
  ASSERT_EQ(answers.count(10), 1u);
  EXPECT_EQ(answers[10].type, MessageType::kPongResponse);
  EXPECT_EQ(live.metrics.GetCounter("net.v2.hellos")->value(), 0);
}

TEST(RecServerTest, RetiredBatchTypeGetsUnknownTypeAndConnectionSurvives) {
  // 0x07 (once the batched Recommend) is not a message type: a well-formed
  // batch of one Recommend body is answered like any other unknown type,
  // and the connection stays usable.
  LiveServer live;
  RawPeer peer(live.server->port());
  RecRequest request;
  request.user = 1;
  request.top_n = 3;
  FrameDecoder encoded;
  encoded.Append(EncodeRecommendRequest(0, request));
  Frame retired;
  retired.type = static_cast<MessageType>(0x07);
  retired.request_id = 21;
  retired.body = std::string("\x00\x00\x00\x01", 4) + encoded.Next()->body;
  std::string bytes;
  AppendFrame(retired, &bytes);
  peer.Send(bytes);
  StatusOr<Frame> frame = peer.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  EXPECT_EQ(frame->request_id, 21u);
  auto error = DecodeErrorResponse(*frame);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, WireError::kUnknownType);

  peer.Send(EncodePingRequest(22));
  StatusOr<Frame> pong = peer.ReadFrame();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, MessageType::kPongResponse);
  EXPECT_EQ(pong->request_id, 22u);
}

TEST(RecServerTest, OneRecommendIsOneSampleOfTheRecommendHistogram) {
  // perfbench reads net.server.rpc.recommend.latency_us as the server's
  // own time per Recommend: every Recommend records exactly one sample
  // and counts as exactly one request.
  LiveServer live;
  RecClient client(live.ClientOptions());
  // Connect (and Hello) first, so only the Recommend below moves the
  // metrics under test.
  ASSERT_TRUE(client.Connect().ok());
  Histogram* latency =
      live.metrics.GetHistogram("net.server.rpc.recommend.latency_us");
  Counter* requests = live.metrics.GetCounter("net.server.requests");
  const std::uint64_t samples_before = latency->count();
  const std::int64_t requests_before = requests->value();

  RecRequest request;
  request.user = 1;
  request.top_n = 3;
  ASSERT_TRUE(client.Recommend(request).ok());
  EXPECT_EQ(latency->count() - samples_before, 1u);
  EXPECT_EQ(requests->value() - requests_before, 1);
}

TEST(RecServerTest, PipelinedThreadsShareOneConnection) {
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }
  RecClient client(live.ClientOptions());
  ASSERT_TRUE(client.Connect().ok());

  constexpr int kThreads = 8;
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
  // The whole fleet of threads rode ONE pipelined connection (§6).
  EXPECT_EQ(live.metrics.GetCounter("net.server.connections.accepted")->value(),
            1);
}

TEST(RecServerTest, PipelinedCallsSurviveInjectedLatency) {
  // Slow RPCs + concurrent callers: every response must reach the
  // caller that asked for it even when replies queue up (§6).
  FaultGuard guard;
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }
  FaultInjector::Instance().Arm(
      "service.recommend", FaultSpec::Latency(5).WithProbability(0.5));
  RecClient client(live.ClientOptions());
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 10;
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

/// Minimal fake server for client-side tests the real server cannot
/// drive (it answers in request order by construction): accepts one
/// connection, answers Hello acking no features, then reorders
/// responses.
struct ReorderingFakeServer {
  ReorderingFakeServer() {
    auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/1);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listen_fd = std::move(*listener);
    auto bound = LocalPort(listen_fd.get());
    EXPECT_TRUE(bound.ok());
    port = bound.ok() ? *bound : 0;
    serve = std::thread([this] { Serve(); });
  }

  ~ReorderingFakeServer() {
    if (serve.joinable()) serve.join();
  }

  void Serve() {
    ASSERT_TRUE(WaitReady(listen_fd.get(), /*for_read=*/true, 5000).ok());
    UniqueFd conn(accept(listen_fd.get(), nullptr, nullptr));
    ASSERT_TRUE(conn.valid());
    FrameDecoder decoder;
    std::vector<Frame> held;  // Recommend requests answered in reverse.
    char buf[4096];
    while (true) {
      StatusOr<Frame> frame = decoder.Next();
      if (!frame.ok()) {
        if (!frame.status().IsNotFound()) return;
        if (!WaitReady(conn.get(), /*for_read=*/true, 5000).ok()) return;
        ssize_t n = read(conn.get(), buf, sizeof(buf));
        if (n <= 0) return;
        decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (frame->type == MessageType::kHelloRequest) {
        // A default reply acks no feature bits.
        const std::string out =
            EncodeHelloResponse(frame->request_id, HelloReply{});
        ASSERT_EQ(write(conn.get(), out.data(), out.size()),
                  static_cast<ssize_t>(out.size()));
        continue;
      }
      if (frame->type != MessageType::kRecommendRequest) continue;
      if (frame->has_trace) traced_requests.fetch_add(1);
      held.push_back(*frame);
      if (held.size() < 2) continue;  // Hold until both are in.
      // Answer LAST-in first: the client must match by id, not order.
      std::string out;
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        auto request = DecodeRecommendRequest(*it);
        ASSERT_TRUE(request.ok());
        // Echo the user back as the video id so each caller can check
        // it got ITS answer.
        const std::vector<ScoredVideo> echo = {
            {static_cast<VideoId>(request->user), 1.0}};
        out += EncodeRecommendResponse(it->request_id, echo);
      }
      ASSERT_EQ(write(conn.get(), out.data(), out.size()),
                static_cast<ssize_t>(out.size()));
      return;  // Both responses flushed; done.
    }
  }

  RecClient::Options ClientOptions() const {
    RecClient::Options options;
    options.port = port;
    options.request_timeout_ms = 5000;
    return options;
  }

  UniqueFd listen_fd;
  std::uint16_t port = 0;
  std::thread serve;
  /// Recommend requests that arrived with a trace extension.
  std::atomic<int> traced_requests{0};
};

/// Users 1 and 2 ask for a page concurrently on one client, each caller
/// thread under `trace`; returns how many got their own echoed answer.
int RecommendFromTwoCallers(RecClient& client, const TraceContext& trace) {
  std::atomic<int> correct{0};
  std::vector<std::thread> callers;
  for (UserId user = 1; user <= 2; ++user) {
    callers.emplace_back([&client, &correct, &trace, user] {
      ScopedTraceContext scope(trace);
      RecRequest request;
      request.user = user;
      request.top_n = 1;
      auto recs = client.Recommend(request);
      if (recs.ok() && recs->size() == 1 && (*recs)[0].video == user) {
        correct.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  return correct.load();
}

TEST(RecClientTest, OutOfOrderResponsesReachTheRightCallers) {
  ReorderingFakeServer fake;
  RecClient client(fake.ClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(RecommendFromTwoCallers(client, TraceContext{}), 2);
}

TEST(RecServerTest, CallTimeoutKeepsConnectionAndDropsStaleResponse) {
  // A timed-out call must NOT tear down the pipelined connection other
  // callers share; the late response is dropped as stale (§6.2).
  FaultGuard guard;
  LiveServer live;
  Timestamp t = 0;
  for (UserId user = 1; user <= 5; ++user) {
    live.service.Observe(Play(user, 100, t += 1000));
  }
  RecClient::Options options = live.ClientOptions();
  options.request_timeout_ms = 100;
  options.auto_reconnect = false;  // Surface the timeout, no retry.
  RecClient client(options);
  ASSERT_TRUE(client.Connect().ok());

  FaultInjector::Instance().Arm("service.recommend", FaultSpec::Latency(400));
  RecRequest request;
  request.user = 999;
  request.top_n = 3;
  request.now = t;
  auto timed_out = client.Recommend(request);
  EXPECT_TRUE(timed_out.status().IsUnavailable());
  EXPECT_TRUE(client.connected());
  FaultInjector::Instance().DisarmAll();

  // The abandoned response drains as stale.
  for (int i = 0; i < 100 && client.stale_responses_dropped() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(client.stale_responses_dropped(), 1u);

  // Same connection still serves traffic.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(live.metrics.GetCounter("net.server.connections.accepted")->value(),
            1);
}

/// One HTTP GET against a StatsServer; returns the whole response.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  auto fd = ConnectTcp("127.0.0.1", port, 1000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(write(fd->get(), request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  while (true) {
    Status ready = WaitReady(fd->get(), /*for_read=*/true, 2000);
    if (!ready.ok()) break;
    ssize_t n = read(fd->get(), buf, sizeof(buf));
    if (n <= 0) break;  // Connection: close ends the response.
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(StatsServerTest, QualityPathServesOnlyTheQualitySection) {
  MetricsRegistry metrics;
  metrics.GetCounter("net.server.requests")->Increment(7);
  metrics.GetDoubleGauge("quality.progressive.logloss")->Set(0.31);
  metrics.GetCounter("quality.alerts.logloss")->Increment(2);
  StatsServer stats_server(&metrics, {});
  ASSERT_TRUE(stats_server.Start().ok());

  const std::string quality = HttpGet(stats_server.port(), "/quality");
  EXPECT_NE(quality.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(quality.find("# TYPE quality_progressive_logloss gauge"),
            std::string::npos);
  EXPECT_NE(quality.find("quality_progressive_logloss 0.31"),
            std::string::npos);
  EXPECT_NE(quality.find("quality_alerts_logloss_total 2"),
            std::string::npos);
  // Everything outside the quality namespace is filtered out.
  EXPECT_EQ(quality.find("net_server_requests"), std::string::npos);

  // Other paths still serve the full registry.
  const std::string full = HttpGet(stats_server.port(), "/metrics");
  EXPECT_NE(full.find("net_server_requests_total 7"), std::string::npos);
  EXPECT_NE(full.find("quality_progressive_logloss 0.31"),
            std::string::npos);
  stats_server.Stop();
}

TEST(StatsServerTest, ServesPrometheusTextOverHttp) {
  MetricsRegistry metrics;
  metrics.GetCounter("some.counter")->Increment(3);
  StatsServer stats_server(&metrics, {});
  ASSERT_TRUE(stats_server.Start().ok());
  ASSERT_NE(stats_server.port(), 0);

  auto fd = ConnectTcp("127.0.0.1", stats_server.port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(write(fd->get(), request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char buf[4096];
  while (true) {
    Status ready = WaitReady(fd->get(), /*for_read=*/true, 2000);
    if (!ready.ok()) break;
    ssize_t n = read(fd->get(), buf, sizeof(buf));
    if (n <= 0) break;  // Connection: close ends the response.
    response.append(buf, static_cast<std::size_t>(n));
  }
  stats_server.Stop();

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("some_counter_total 3"), std::string::npos);
  // The scrape itself is counted (visible from the next scrape on).
  EXPECT_EQ(metrics.GetCounter("stats.scrapes")->value(), 1);
}

TEST(StatsServerTest, UnknownPathsGet404) {
  MetricsRegistry metrics;
  metrics.GetCounter("some.counter")->Increment(1);
  StatsServer stats_server(&metrics, {});
  ASSERT_TRUE(stats_server.Start().ok());
  const std::string response = HttpGet(stats_server.port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos)
      << response;
  EXPECT_EQ(response.find("some_counter"), std::string::npos);
  // Root still serves the full scrape.
  const std::string root = HttpGet(stats_server.port(), "/");
  EXPECT_NE(root.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(root.find("some_counter_total 1"), std::string::npos);
  stats_server.Stop();
}

TEST(StatsServerTest, HealthzReportsShardId) {
  MetricsRegistry metrics;
  StatsServer::Options options;
  options.shard_id = 3;
  StatsServer stats_server(&metrics, options);
  ASSERT_TRUE(stats_server.Start().ok());
  const std::string response = HttpGet(stats_server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok shard=3"), std::string::npos) << response;
  stats_server.Stop();
}

TEST(StatsServerTest, TracesPathsServeTheSpanCollector) {
  MetricsRegistry metrics;
  obs::SpanCollector::Options span_options;
  span_options.metrics = &metrics;
  obs::SpanCollector spans(span_options);
  const std::uint16_t rpc = spans.InternName("rpc.recommend");

  // One synthetic finished trace (root only).
  obs::SpanRecord root;
  root.trace_id = 0xBEEF;
  root.span_id = 1;
  root.start_us = 100;
  root.end_us = 600;
  root.name_id = rpc;
  root.flags = obs::kSpanFlagRoot;
  spans.Record(root);

  StatsServer::Options options;
  options.spans = &spans;
  StatsServer stats_server(&metrics, options);
  ASSERT_TRUE(stats_server.Start().ok());

  const std::string traces = HttpGet(stats_server.port(), "/traces");
  EXPECT_NE(traces.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(traces.find("application/json"), std::string::npos);
  EXPECT_NE(traces.find("\"traceEvents\""), std::string::npos) << traces;
  EXPECT_NE(traces.find("000000000000beef"), std::string::npos) << traces;

  const std::string slow = HttpGet(stats_server.port(), "/traces/slow");
  EXPECT_NE(slow.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(slow.find("\"total_us\":500"), std::string::npos) << slow;
  stats_server.Stop();
}

TEST(StatsServerTest, TracesPathIs404WithoutACollector) {
  MetricsRegistry metrics;
  StatsServer stats_server(&metrics, {});
  ASSERT_TRUE(stats_server.Start().ok());
  const std::string response = HttpGet(stats_server.port(), "/traces");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  stats_server.Stop();
}

TEST(StatsServerTest, NativeHistogramOptionChangesTheScrape) {
  MetricsRegistry metrics;
  metrics.GetHistogram("rpc.latency.us")->Add(5);
  StatsServer::Options options;
  options.native_histograms = true;
  StatsServer stats_server(&metrics, options);
  ASSERT_TRUE(stats_server.Start().ok());
  const std::string response = HttpGet(stats_server.port(), "/metrics");
  EXPECT_NE(response.find("rpc_latency_us_hist_bucket{le=\""),
            std::string::npos)
      << response;
  stats_server.Stop();
}

/// A parsed JSON value: just enough of RFC 8259 to load the Chrome
/// trace-event export the way a trace viewer would.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// The member `key` of an object, or a null value.
  const JsonValue& operator[](const std::string& key) const {
    static const JsonValue kMissing;
    auto it = object.find(key);
    return it == object.end() ? kMissing : it->second;
  }
};

/// Strict recursive-descent parser: whole text, one value, no trailing
/// bytes.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"':
        out->kind = JsonValue::kString;
        return String(&out->string);
    }
    for (const char* literal : {"true", "false", "null"}) {
      if (text_.substr(pos_, std::strlen(literal)) == literal) {
        out->kind = literal[0] == 'n' ? JsonValue::kNull : JsonValue::kBool;
        pos_ += std::strlen(literal);
        return true;
      }
    }
    return Number(out);
  }

  bool Object(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;
    SkipSpace();
    if (Consume('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (!Consume(':') || !Value(&out->object[key])) return false;
      SkipSpace();
    } while (Consume(','));
    return Consume('}');
  }

  bool Array(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;
    SkipSpace();
    if (Consume(']')) return true;
    do {
      out->array.emplace_back();
      if (!Value(&out->array.back())) return false;
      SkipSpace();
    } while (Consume(','));
    return Consume(']');
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      if (escape == 'u') {
        if (pos_ + 4 > text_.size()) return false;
        for (int i = 0; i < 4; ++i) {
          if (!std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
            return false;
          }
        }
        out->push_back('?');  // Code points are not needed here.
      } else if (kEscapes.find(escape) != std::string_view::npos) {
        out->push_back(kDecoded[kEscapes.find(escape)]);
      } else {
        return false;
      }
    }
    return false;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(JsonValue* out) {
    const std::size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !Digits()) return false;
    if (Consume('.') && !Digits()) return false;
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return false;
    }
    out->kind = JsonValue::kNumber;
    out->number =
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr);
    return true;
  }

  bool Digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::string_view(" \t\r\n").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonParserTest, AcceptsJsonAndRejectsMalformedText) {
  JsonValue value;
  EXPECT_TRUE(JsonParser(R"({"a":[1,-2.5e3,"x\"y",true,null],"b":{}})")
                  .Parse(&value));
  EXPECT_EQ(value["a"].array.size(), 5u);
  EXPECT_EQ(value["a"].array[1].number, -2500.0);
  EXPECT_EQ(value["a"].array[2].string, "x\"y");
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "01", "[1] x",
                          "\"unterminated", "{\"a\":.5}"}) {
    JsonValue ignored;
    EXPECT_FALSE(JsonParser(bad).Parse(&ignored)) << bad;
  }
}

// ---------------------------------------------------------------------------
// Trace propagation over TCP (docs/WIRE_PROTOCOL.md §2.1, §5.4).

TEST(TracePropagationTest, NegotiatedOnV2Connect) {
  LiveServer live;
  RecClient client(live.ClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.trace_propagation_negotiated());
}

TEST(TracePropagationTest, SampledContextPropagatesAndServerAdopts) {
  MetricsRegistry trace_metrics;
  Tracer::Options tracer_options;
  tracer_options.sample_every_n = 0;  // Server never self-samples...
  tracer_options.metrics = &trace_metrics;
  Tracer tracer(tracer_options);
  obs::SpanCollector::Options span_options;
  span_options.metrics = &trace_metrics;
  obs::SpanCollector spans(span_options);

  RecServer::Options options;
  options.tracer = &tracer;
  options.spans = &spans;
  LiveServer live(options);
  RecClient client(live.ClientOptions());

  // ...so the only sampled trace it can see is the one we propagate.
  TraceContext trace;
  trace.id = 0x1234ABCD;
  trace.start_us = Tracer::NowMicros();
  RecRequest request;
  request.user = 1;
  request.top_n = 3;
  {
    ScopedTraceContext scope(trace);
    ASSERT_TRUE(client.Recommend(request).ok());
  }
  ASSERT_TRUE(client.Recommend(request).ok());  // Untraced control call.

  EXPECT_EQ(trace_metrics.GetCounter("trace.adopted")->value(), 1);
  spans.Flush();
  // The server's span tree carries the propagated id — stitchable.
  EXPECT_TRUE(spans.HasTrace(0x1234ABCD));
  const std::string json = spans.ExportChromeJson();
  EXPECT_NE(json.find("\"name\":\"rpc.recommend\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"engine\""), std::string::npos);
}

TEST(TracePropagationTest, UnackedFeatureSilentlyDropsTheContext) {
  // The fake server's Hello acks no features, so a sampled context on
  // the calling thread must not reach the wire: the requests are sent
  // unchanged and still answered.
  ReorderingFakeServer fake;
  RecClient client(fake.ClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_FALSE(client.trace_propagation_negotiated());
  TraceContext trace;
  trace.id = 0x5678;
  trace.start_us = Tracer::NowMicros();
  EXPECT_EQ(RecommendFromTwoCallers(client, trace), 2);
  EXPECT_EQ(fake.traced_requests.load(), 0);
}

TEST(TracePropagationTest, UnnegotiatedExtensionIsAVersionViolation) {
  LiveServer live;
  RawPeer peer(live.server->port());
  // A trace extension without the Hello feature handshake is exactly
  // what a pre-trace server would see as a bad version byte.
  std::string bytes = EncodePingRequest(7);
  StampTraceExtension(&bytes, 0xAB, kTraceFlagSampled, 0);
  peer.Send(bytes);
  StatusOr<Frame> frame = peer.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto error = DecodeErrorResponse(*frame);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kBadVersion);
  EXPECT_TRUE(peer.WaitForClose());
}

TEST(TracePropagationTest, TailCaptureKeepsSlowRequestsServerSide) {
  MetricsRegistry trace_metrics;
  obs::SpanCollector::Options span_options;
  span_options.metrics = &trace_metrics;
  obs::SpanCollector spans(span_options);

  RecServer::Options options;
  options.spans = &spans;
  options.trace_slow_us = 1;  // Everything is "slow": capture all.
  LiveServer live(options);
  FaultGuard guard;
  FaultInjector::Instance().Arm("service.recommend", FaultSpec::Latency(2));
  RecClient client(live.ClientOptions());
  RecRequest request;
  request.user = 1;
  request.top_n = 3;
  ASSERT_TRUE(client.Recommend(request).ok());
  EXPECT_GT(FaultInjector::Instance().InjectedCount("service.recommend"), 0u);

  spans.Flush();
  const auto stats = spans.GetStats();
  EXPECT_GE(stats.slow_captured, 1u);
  const std::string json = spans.ExportSlowJson();
  EXPECT_NE(json.find("\"slow_capture\":true"), std::string::npos) << json;
}

TEST(TracePropagationTest, ChromeExportOfATracedServerRunIsValidTraceEvents) {
  // A server with the full recording stack armed (head sampling, span
  // collection, tail capture keeping every request), driven by a client
  // that also propagates its own sampled contexts over the wire.
  MetricsRegistry trace_metrics;
  Tracer::Options tracer_options;
  tracer_options.sample_every_n = 4;
  tracer_options.metrics = &trace_metrics;
  Tracer tracer(tracer_options);
  obs::SpanCollector::Options span_options;
  span_options.metrics = &trace_metrics;
  obs::SpanCollector spans(span_options);

  RecServer::Options options;
  options.tracer = &tracer;
  options.spans = &spans;
  options.trace_slow_us = 1;  // Tail capture keeps everything.
  LiveServer live(options);
  Timestamp t = 0;
  for (UserId user = 1; user <= 16; ++user) {
    live.service.Observe(Play(user, 10 + user % 5, t += 1000));
    live.service.Observe(Play(user, 11 + user % 5, t += 1000));
  }
  RecClient client(live.ClientOptions());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.trace_propagation_negotiated());
  for (int seq = 0; seq < 64; ++seq) {
    RecRequest request;
    request.user = 1 + seq % 16;
    request.seed_videos = {10 + static_cast<VideoId>(seq % 5)};
    request.top_n = 10;
    request.now = t + seq;
    if (seq % 4 == 0) {
      TraceContext trace;
      trace.id = 0xC0FFEE0000000000ull + static_cast<std::uint64_t>(seq);
      trace.start_us = Tracer::NowMicros();
      ScopedTraceContext scope(trace);
      ASSERT_TRUE(client.Recommend(request).ok());
    } else if (seq % 8 == 7) {
      ASSERT_TRUE(client.Observe(Play(request.user, 12, request.now)).ok());
    } else {
      ASSERT_TRUE(client.Recommend(request).ok());
    }
  }
  live.server->Stop();
  spans.Flush();

  EXPECT_GT(trace_metrics.GetCounter("trace.sampled")->value(), 0);
  EXPECT_GT(trace_metrics.GetCounter("trace.adopted")->value(), 0);
  const obs::SpanCollector::Stats stats = spans.GetStats();
  EXPECT_GT(stats.traces_finished, 0u);
  EXPECT_GT(stats.slow_captured, 0u);
  EXPECT_GE(stats.spans_recorded, stats.traces_finished);

  // The export must load as Chrome trace-event JSON: complete "X" events
  // with non-negative timing, a name, a 16-hex-digit trace id, and at
  // least one root span.
  const std::string chrome = spans.ExportChromeJson();
  JsonValue dump;
  ASSERT_TRUE(JsonParser(chrome).Parse(&dump)) << chrome;
  const JsonValue& events = dump["traceEvents"];
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_FALSE(events.array.empty());
  int roots = 0;
  for (const JsonValue& event : events.array) {
    EXPECT_EQ(event["ph"].string, "X");
    EXPECT_EQ(event["ts"].kind, JsonValue::kNumber);
    EXPECT_GE(event["ts"].number, 0.0);
    EXPECT_EQ(event["dur"].kind, JsonValue::kNumber);
    EXPECT_GE(event["dur"].number, 0.0);
    EXPECT_FALSE(event["name"].string.empty());
    const std::string& trace_id = event["args"]["trace_id"].string;
    EXPECT_EQ(trace_id.size(), 16u) << trace_id;
    for (char c : trace_id) {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << trace_id;
    }
    const JsonValue& parent = event["args"]["parent_id"];
    if (parent.kind == JsonValue::kNumber && parent.number == 0) ++roots;
  }
  EXPECT_GT(roots, 0);

  JsonValue slow;
  ASSERT_TRUE(JsonParser(spans.ExportSlowJson()).Parse(&slow));
  ASSERT_FALSE(slow["slow"].array.empty());
  EXPECT_EQ(slow["slow"].array.front()["total_us"].kind, JsonValue::kNumber);
}

}  // namespace
}  // namespace rtrec
