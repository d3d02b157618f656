// Pipelining must beat a lock-step baseline (one request in flight) on
// one TCP connection (docs/WIRE_PROTOCOL.md §6). Both legs speak raw
// wire frames from the test thread, not through RecClient, so the
// comparison isolates transport mechanics (round trips, syscalls,
// wakeups) from client-library threads and locks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "net/rec_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/recommendation_service.h"

namespace rtrec {
namespace {

using Clock = std::chrono::steady_clock;

/// One raw wire connection: a blocking TCP fd + FrameDecoder.
struct RawConnection {
  UniqueFd fd;
  FrameDecoder decoder;

  bool Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::write(fd.get(), bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  StatusOr<Frame> Next() {
    char buf[16384];
    while (true) {
      StatusOr<Frame> frame = decoder.Next();
      if (frame.ok() || !frame.status().IsNotFound()) return frame;
      RTREC_RETURN_IF_ERROR(WaitReady(fd.get(), /*for_read=*/true, 2000));
      const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
      if (n == 0) return Status::Unavailable("server closed the connection");
      if (n < 0 && errno != EINTR) return Status::Internal("read failed");
      if (n > 0) {
        decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      }
    }
  }
};

/// Keeps `window` Recommend requests in flight on `conn` for `seconds`,
/// then drains; returns completed requests per second. window = 1 is
/// lock-step, window > 1 pipelined. Responses may
/// arrive out of order; each must answer a request still in flight.
double WindowedQps(RawConnection& conn, int window, double seconds) {
  std::unordered_set<std::uint64_t> in_flight;
  std::uint64_t next_id = 100;
  auto send_one = [&] {
    const std::uint64_t id = next_id++;
    RecRequest request;
    request.user = 1 + id % 16;
    request.seed_videos = {10 + static_cast<VideoId>(id % 5)};
    request.top_n = 10;
    request.now = 2'000'000 + static_cast<Timestamp>(id);
    in_flight.insert(id);
    return conn.Send(EncodeRecommendRequest(id, request));
  };
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  for (int i = 0; i < window; ++i) {
    if (!send_one()) {
      ADD_FAILURE() << "send failed while priming the window";
      return 0.0;
    }
  }
  std::int64_t completed = 0;
  while (!in_flight.empty()) {
    StatusOr<Frame> frame = conn.Next();
    if (!frame.ok() || frame->type != MessageType::kRecommendResponse ||
        in_flight.erase(frame->request_id) != 1) {
      ADD_FAILURE() << "bad response: "
                    << (frame.ok() ? "unexpected frame"
                                   : frame.status().ToString());
      return 0.0;
    }
    ++completed;
    if (Clock::now() < deadline && !send_one()) {
      ADD_FAILURE() << "send failed mid-run";
      return 0.0;
    }
  }
  return completed /
         std::chrono::duration<double>(Clock::now() - t0).count();
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

TEST(TransportSpeedupTest, PipeliningBeatsLockStepOnOneConnection) {
  MetricsRegistry metrics;
  RecommendationService::Options service_options;
  service_options.metrics = &metrics;
  RecommendationService service(
      [](VideoId v) -> VideoType { return v < 100 ? 0 : 1; },
      service_options);
  Timestamp t = 0;
  for (int round = 0; round < 20; ++round) {
    for (UserId user = 1; user <= 16; ++user) {
      service.Observe(Play(user, 10 + user % 5, t += 1000));
      service.Observe(Play(user, 11 + user % 5, t += 1000));
    }
  }
  RecServer::Options server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  server_options.metrics = &metrics;
  RecServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr double kSeconds = 0.4;
  constexpr int kWindow = 64;
  // Lock-step baseline: one request in flight, so every RPC pays a full
  // round trip. No leg sends a Hello; none needs one (§5).
  RawConnection lockstep;
  auto lockstep_fd = ConnectTcp("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(lockstep_fd.ok()) << lockstep_fd.status().ToString();
  lockstep.fd = std::move(*lockstep_fd);
  const double lockstep_qps = WindowedQps(lockstep, 1, kSeconds);

  RawConnection tcp;
  auto tcp_fd = ConnectTcp("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(tcp_fd.ok()) << tcp_fd.status().ToString();
  tcp.fd = std::move(*tcp_fd);
  const double tcp_qps = WindowedQps(tcp, kWindow, kSeconds);
  server.Stop();

  std::printf("lock-step %.0f QPS | tcp pipelined %.0f (x%.2f)\n",
              lockstep_qps, tcp_qps, tcp_qps / lockstep_qps);
  ASSERT_GT(lockstep_qps, 0.0);
  EXPECT_GT(tcp_qps / lockstep_qps, 1.0);
}

}  // namespace
}  // namespace rtrec
