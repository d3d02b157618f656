#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <string_view>
#include <thread>

#include "net/socket.h"
#include "net/wire.h"

namespace perfbench {
namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

enum class ReadOutcome { kData, kTimeout, kClosed };

/// Waits up to `timeout` for bytes on `fd` and feeds what arrived to
/// `decoder`. ppoll keeps sub-millisecond send schedules honest.
ReadOutcome ReadSome(int fd, Clock::duration timeout,
                     rtrec::FrameDecoder& decoder) {
  const std::int64_t ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
  if (ready == 0) return ReadOutcome::kTimeout;
  if (ready < 0) {
    return errno == EINTR ? ReadOutcome::kTimeout : ReadOutcome::kClosed;
  }
  char buf[64 * 1024];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n > 0) {
    decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
    return ReadOutcome::kData;
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
    return ReadOutcome::kTimeout;
  }
  return ReadOutcome::kClosed;
}

void CheckPage(const rtrec::RecRequest& request,
               const std::vector<rtrec::ScoredVideo>& videos,
               PageChecks* checks) {
  ++checks->pages;
  if (videos.empty()) ++checks->empty;
  bool echoed = false;
  bool duplicated = false;
  bool unsorted = false;
  for (std::size_t i = 0; i < videos.size(); ++i) {
    for (rtrec::VideoId seed : request.seed_videos) {
      echoed = echoed || videos[i].video == seed;
    }
    for (std::size_t j = 0; j < i; ++j) {
      duplicated = duplicated || videos[j].video == videos[i].video;
    }
    unsorted = unsorted || (i > 0 && videos[i].score > videos[i - 1].score);
  }
  if (echoed) ++checks->seed_echoed;
  if (duplicated) ++checks->duplicated;
  if (unsorted) ++checks->unsorted;
}

/// Negotiates wire v2 with a Hello, as RecClient does.
bool Hello(int fd, rtrec::FrameDecoder& decoder, std::string* error) {
  if (!WriteAll(fd, rtrec::EncodeHelloRequest(0, rtrec::HelloRequest{}))) {
    *error = "hello send failed";
    return false;
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < deadline) {
    auto frame = decoder.Next();
    if (frame.ok()) {
      auto reply = rtrec::DecodeHelloResponse(*frame);
      if (reply.ok() && reply->version >= rtrec::kWireVersionV2) return true;
      *error = "server did not grant wire v2";
      return false;
    }
    if (!frame.status().IsNotFound()) break;
    if (ReadSome(fd, deadline - Clock::now(), decoder) ==
        ReadOutcome::kClosed) {
      break;
    }
  }
  *error = "no hello reply";
  return false;
}

/// Runs one connection's schedule; `start` is shared by every connection.
LegResult RunConnection(std::uint16_t port, const std::vector<Op>& ops,
                        Clock::time_point start, int drain_timeout_ms) {
  LegResult out;
  out.read_us.reserve(ops.size());
  out.read_send_us.reserve(ops.size());
  out.lateness_us.reserve(ops.size());
  enum : std::uint8_t { kUnsent, kInFlight, kDone };
  std::vector<std::uint8_t> state(ops.size(), kUnsent);
  std::vector<Clock::time_point> sent_at(ops.size());
  auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(ops[i].due_ns);
  };

  TightenTimerSlack();
  rtrec::FrameDecoder decoder;
  auto conn = rtrec::ConnectTcp("127.0.0.1", port, 2000);
  bool up = conn.ok();
  if (!up) out.error = "connect failed: " + conn.status().ToString();
  const int fd = up ? conn->get() : -1;
  if (up && !Hello(fd, decoder, &out.error)) up = false;
  if (up) std::this_thread::sleep_until(start);

  Clock::time_point last_reply = start;
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::size_t next = 0;
  std::size_t in_flight = 0;
  std::string batch;
  while (up) {
    Clock::time_point now = Clock::now();
    // Send every operation that is due, coalesced into one write.
    const std::size_t first = next;
    batch.clear();
    for (; next < ops.size() && due(next) <= now; ++next) {
      const Op& op = ops[next];
      const std::uint64_t id = next + 1;
      batch += op.is_write ? rtrec::EncodeObserveRequest(id, op.action)
                           : rtrec::EncodeRecommendRequest(id, op.request);
    }
    if (!batch.empty()) {
      if (!WriteAll(fd, batch)) {
        out.error = "send failed";
        break;
      }
      now = Clock::now();
      for (std::size_t i = first; i < next; ++i) {
        state[i] = kInFlight;
        sent_at[i] = now;
        out.lateness_us.push_back(Micros(now - due(i)));
        ++(ops[i].is_write ? out.writes_sent : out.reads_sent);
      }
      in_flight += next - first;
      if (next == ops.size()) {
        drain_deadline = now + std::chrono::milliseconds(drain_timeout_ms);
      }
    }
    if (next == ops.size() && (in_flight == 0 || now >= drain_deadline)) {
      break;
    }
    const Clock::time_point until =
        next < ops.size() ? due(next) : drain_deadline;
    const ReadOutcome read = ReadSome(fd, until - now, decoder);
    if (read == ReadOutcome::kClosed) {
      out.error = "server closed the connection";
      break;
    }
    if (read == ReadOutcome::kTimeout) continue;
    const Clock::time_point arrived = Clock::now();
    while (true) {
      auto frame = decoder.Next();
      if (!frame.ok()) {
        if (!frame.status().IsNotFound()) {
          out.error = "corrupt reply stream";
          up = false;
        }
        break;
      }
      const std::uint64_t id = frame->request_id;
      if (id == 0 || id > ops.size() || state[id - 1] != kInFlight) {
        out.error = "reply for an unknown request id";
        up = false;
        break;
      }
      const std::size_t i = id - 1;
      state[i] = kDone;
      --in_flight;
      last_reply = arrived;
      const Op& op = ops[i];
      if (op.is_write) {
        if (frame->type == rtrec::MessageType::kAckResponse) {
          ++out.writes_ok;
          out.write_us.push_back(Micros(arrived - due(i)));
        } else {
          ++out.writes_failed;
        }
        continue;
      }
      bool ok = false;
      if (frame->type == rtrec::MessageType::kRecommendResponse) {
        auto reply = rtrec::DecodeRecommendReply(*frame);
        // A DEGRADED fallback page is not the engine's answer: count it
        // as failed, like an error frame or a shed request.
        if (reply.ok() && !reply->degraded()) {
          ok = true;
          CheckPage(op.request, reply->videos, &out.pages);
        }
      }
      if (ok) {
        ++out.reads_ok;
        out.read_us.push_back(Micros(arrived - due(i)));
        out.read_send_us.push_back(Micros(arrived - sent_at[i]));
      } else {
        ++out.reads_failed;
      }
    }
  }
  // Unsent, unanswered and timed-out operations all count as failed.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (state[i] != kDone) ++(ops[i].is_write ? out.writes_failed
                                              : out.reads_failed);
  }
  const Clock::time_point end =
      ops.empty() ? start : std::max(last_reply, due(ops.size() - 1));
  out.elapsed_s = std::chrono::duration<double>(end - start).count();
  return out;
}

}  // namespace

void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void LegResult::Merge(LegResult&& o) {
  read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
  read_send_us.insert(read_send_us.end(), o.read_send_us.begin(),
                      o.read_send_us.end());
  write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
  lateness_us.insert(lateness_us.end(), o.lateness_us.begin(),
                     o.lateness_us.end());
  reads_sent += o.reads_sent;
  reads_ok += o.reads_ok;
  reads_failed += o.reads_failed;
  writes_sent += o.writes_sent;
  writes_ok += o.writes_ok;
  writes_failed += o.writes_failed;
  elapsed_s = std::max(elapsed_s, o.elapsed_s);
  pages.Merge(o.pages);
  if (error.empty()) error = std::move(o.error);
}

LegResult RunOpenLoop(std::uint16_t port,
                      const std::vector<std::vector<Op>>& per_connection,
                      int drain_timeout_ms) {
  // Connections open and negotiate before the shared start time, so
  // connect cost never shows up as lateness.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<LegResult> results(per_connection.size());
  std::vector<std::thread> threads;
  threads.reserve(per_connection.size());
  for (std::size_t c = 0; c < per_connection.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] =
          RunConnection(port, per_connection[c], start, drain_timeout_ms);
    });
  }
  for (std::thread& t : threads) t.join();
  LegResult merged;
  for (LegResult& r : results) merged.Merge(std::move(r));
  return merged;
}

}  // namespace perfbench
