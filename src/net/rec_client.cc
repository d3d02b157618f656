#include "net/rec_client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace rtrec {
namespace {

std::int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point TimePointFromMillis(std::int64_t ms) {
  return std::chrono::steady_clock::time_point(std::chrono::milliseconds(ms));
}

// Per-thread source for retry jitter, seeded distinctly per thread so
// clients created together don't retry in lockstep.
std::uint64_t JitterMillis(std::int64_t bound_ms) {
  if (bound_ms <= 0) return 0;
  static std::atomic<std::uint64_t> seed_counter{0};
  thread_local Rng rng(0x9E3779B97F4A7C15ull *
                       (seed_counter.fetch_add(1, std::memory_order_relaxed) +
                        1));
  return rng.NextUint64(static_cast<std::uint64_t>(bound_ms) + 1);
}

}  // namespace

RecClient::RecClient(Options options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    retries_ = options_.metrics->GetCounter("client.retries");
    stale_counter_ = options_.metrics->GetCounter("client.stale_responses");
  }
}

RecClient::~RecClient() {
  // Fails every request still in flight, then joins the reader.
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == ConnState::kUp) {
    FailPendingLocked(Status::Unavailable("client disconnected"));
  }
  CleanupBrokenLocked(lock);
}

Status RecClient::Connect() {
  // The connect path gets the same retry treatment as requests: a
  // refused connect while the server restarts backs off and tries again
  // until the deadline, instead of surfacing the first ECONNREFUSED.
  const std::int64_t give_up_ms = SteadyMillis() + options_.total_deadline_ms;
  Status status;
  {
    std::unique_lock<std::mutex> lock(mu_);
    status = EnsureConnectedLocked(lock, options_.connect_timeout_ms);
  }
  std::int64_t backoff_ms =
      std::max<std::int64_t>(1, options_.retry_backoff_initial_ms);
  for (int attempt = 0;
       !status.ok() && options_.auto_reconnect &&
       (options_.max_retries < 0 || attempt < options_.max_retries);
       ++attempt) {
    const std::int64_t remaining_ms = give_up_ms - SteadyMillis();
    if (remaining_ms <= 0) break;
    const std::int64_t sleep_ms = std::min<std::int64_t>(
        remaining_ms,
        backoff_ms + static_cast<std::int64_t>(JitterMillis(backoff_ms)));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min<std::int64_t>(
        backoff_ms * 2,
        std::max<std::int64_t>(1, options_.retry_backoff_max_ms));
    if (retries_ != nullptr) retries_->Increment();
    std::unique_lock<std::mutex> lock(mu_);
    status = EnsureConnectedLocked(lock, options_.connect_timeout_ms);
  }
  return status;
}

bool RecClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == ConnState::kUp;
}

bool RecClient::trace_propagation_negotiated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == ConnState::kUp &&
         (negotiated_features_ & kFeatureTracePropagation) != 0;
}

bool RecClient::Healthy(int deadline_ms) {
  if (deadline_ms <= 0) deadline_ms = 1;
  // Single attempt, hard budget: a probe's job is a bounded-time
  // verdict, so the retry policy and the Options timeouts deliberately
  // do not apply. Connect and round-trip are each bounded by
  // deadline_ms (so a cold probe is bounded by 2x).
  StatusOr<Frame> frame = CallOnce(
      [](std::uint64_t id) { return EncodePingRequest(id); }, deadline_ms,
      deadline_ms);
  return frame.ok() && frame->type == MessageType::kPongResponse;
}

// ---------------------------------------------------------------------------
// Connection lifecycle. state_ moves kDown -> kUp (OpenTransportLocked),
// kUp -> kBroken (transport failure, reported by whichever side saw it
// first), kBroken -> kDown (CleanupBrokenLocked joins the reader and
// resets). All transitions happen under mu_.

Status RecClient::EnsureConnectedLocked(std::unique_lock<std::mutex>& lock,
                                        int connect_timeout_ms) {
  while (true) {
    switch (state_) {
      case ConnState::kUp:
        return Status::OK();
      case ConnState::kBroken:
        CleanupBrokenLocked(lock);
        continue;  // Re-check: another thread may have reconnected.
      case ConnState::kDown:
        if (cleanup_in_progress_) {
          cv_.wait(lock);
          continue;
        }
        return OpenTransportLocked(connect_timeout_ms);
    }
  }
}

Status RecClient::OpenTransportLocked(int timeout_ms) {
  const std::int64_t deadline_ms =
      SteadyMillis() + std::max(1, timeout_ms);
  auto fd = ConnectTcp(options_.host, options_.port, timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(*fd);
  decoder_ = FrameDecoder();
  Status handshake = HandshakeLocked(deadline_ms);
  if (!handshake.ok()) {
    fd_.Reset();
    return handshake;
  }
  ++conn_epoch_;
  reader_stop_.store(false, std::memory_order_release);
  const std::uint64_t epoch = conn_epoch_;
  reader_ = std::thread([this, epoch] { ReaderLoop(epoch); });
  state_ = ConnState::kUp;
  return Status::OK();
}

Status RecClient::HandshakeLocked(std::int64_t deadline_ms) {
  negotiated_features_ = 0;
  const std::uint64_t id = next_request_id_++;
  HelloRequest hello;
  hello.features = kFeatureTracePropagation;
  RTREC_RETURN_IF_ERROR(SendLocked(EncodeHelloRequest(id, hello), deadline_ms));
  StatusOr<Frame> frame = ReadFrameLocked(deadline_ms);
  if (!frame.ok()) return frame.status();
  if (frame->request_id != id) {
    // A fresh stream owes us exactly one response; anything else means
    // the peer is not speaking this protocol.
    return Status::Internal("out-of-order response during hello handshake");
  }
  if (frame->type == MessageType::kHelloResponse) {
    auto reply = DecodeHelloResponse(*frame);
    if (!reply.ok()) return reply.status();
    // Only feature bits we offered AND the server echoed are live.
    negotiated_features_ = reply->features & hello.features;
    return Status::OK();
  }
  if (frame->type == MessageType::kErrorResponse) {
    auto error = DecodeErrorResponse(*frame);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  return Status::Internal(StringPrintf("unexpected response %s to hello",
                                       MessageTypeToString(frame->type)));
}

void RecClient::CleanupBrokenLocked(std::unique_lock<std::mutex>& lock) {
  while (state_ == ConnState::kBroken) {
    if (cleanup_in_progress_) {
      cv_.wait(lock);
      continue;
    }
    cleanup_in_progress_ = true;
    reader_stop_.store(true, std::memory_order_release);
    // Wake the reader out of its poll so the join below is prompt.
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
    std::thread dead = std::move(reader_);
    lock.unlock();  // Never join while holding mu_ — the reader takes it.
    if (dead.joinable()) dead.join();
    lock.lock();
    fd_.Reset();
    decoder_ = FrameDecoder();
    for (auto& [id, waiter] : pending_) {
      waiter->result = Status::Unavailable("connection closed");
      waiter->done = true;
    }
    pending_.clear();
    negotiated_features_ = 0;
    state_ = ConnState::kDown;
    cleanup_in_progress_ = false;
    cv_.notify_all();
  }
}

void RecClient::FailPendingLocked(const Status& status) {
  for (auto& [id, waiter] : pending_) {
    waiter->result = status;
    waiter->done = true;
  }
  pending_.clear();
  if (state_ == ConnState::kUp) state_ = ConnState::kBroken;
  reader_stop_.store(true, std::memory_order_release);
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Reader: one background thread per live connection. It owns the
// receive side of the socket (decoder_/fd_ reads) and touches
// shared state only through mu_-guarded completion calls.

void RecClient::ReaderLoop(std::uint64_t epoch) {
  while (!reader_stop_.load(std::memory_order_acquire)) {
    StatusOr<Frame> frame = ReadPoll(/*timeout_ms=*/250);
    if (frame.status().IsNotFound()) continue;  // Nothing yet; poll again.
    if (!frame.ok()) {
      FailPending(frame.status(), epoch);
      return;
    }
    CompletePending(std::move(*frame));
  }
  FailPending(Status::Unavailable("client disconnected"), epoch);
}

StatusOr<Frame> RecClient::ReadPoll(int timeout_ms) {
  StatusOr<Frame> frame = decoder_.Next();
  if (frame.ok() || !frame.status().IsNotFound()) return frame;
  Status ready = WaitReady(fd_.get(), /*for_read=*/true, timeout_ms);
  if (!ready.ok()) {
    // WaitReady reports a poll timeout as Unavailable; for the reader
    // that just means "nothing yet".
    if (ready.IsUnavailable()) return Status::NotFound("no data yet");
    return ready;
  }
  char buf[64 * 1024];
  ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
  if (n == 0) return Status::Unavailable("server closed the connection");
  if (n < 0) {
    if (errno == EINTR) return Status::NotFound("interrupted");
    return Status::Unavailable(StringPrintf("recv: %s", strerror(errno)));
  }
  decoder_.Append(std::string_view(buf, static_cast<std::size_t>(n)));
  return decoder_.Next();  // NotFound if the frame is still partial.
}

void RecClient::CompletePending(Frame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(frame.request_id);
  if (it == pending_.end()) {
    // Late answer to a timed-out (and possibly retried) request:
    // dropping it is the whole point of retrying under a fresh id.
    stale_responses_.fetch_add(1, std::memory_order_relaxed);
    if (stale_counter_ != nullptr) stale_counter_->Increment();
    return;
  }
  it->second->result = std::move(frame);
  it->second->done = true;
  pending_.erase(it);
  cv_.notify_all();
}

void RecClient::FailPending(const Status& status, std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != conn_epoch_) return;  // A newer connection owns pending_.
  FailPendingLocked(status);
}

// ---------------------------------------------------------------------------
// Call machinery.

StatusOr<Frame> RecClient::Call(const EncodeFn& encode) {
  // Only transport failures are retried (Unavailable/Internal from the
  // socket layer); typed server errors — OVERLOADED included — arrive
  // as OK frames and are never retried here.
  const std::int64_t give_up_ms = SteadyMillis() + options_.total_deadline_ms;
  StatusOr<Frame> result = CallOnce(encode, options_.connect_timeout_ms,
                                    options_.request_timeout_ms);
  std::int64_t backoff_ms =
      std::max<std::int64_t>(1, options_.retry_backoff_initial_ms);
  for (int attempt = 0;
       !result.ok() && options_.auto_reconnect &&
       (options_.max_retries < 0 || attempt < options_.max_retries);
       ++attempt) {
    const std::int64_t remaining_ms = give_up_ms - SteadyMillis();
    if (remaining_ms <= 0) break;
    const std::int64_t sleep_ms = std::min<std::int64_t>(
        remaining_ms,
        backoff_ms + static_cast<std::int64_t>(JitterMillis(backoff_ms)));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min<std::int64_t>(
        backoff_ms * 2,
        std::max<std::int64_t>(1, options_.retry_backoff_max_ms));
    if (retries_ != nullptr) retries_->Increment();
    result = CallOnce(encode, options_.connect_timeout_ms,
                      options_.request_timeout_ms);
  }
  return result;
}

StatusOr<Frame> RecClient::CallOnce(const EncodeFn& encode,
                                    int connect_timeout_ms,
                                    int request_timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  RTREC_RETURN_IF_ERROR(EnsureConnectedLocked(lock, connect_timeout_ms));
  const std::int64_t deadline_ms = SteadyMillis() + request_timeout_ms;
  const std::uint64_t epoch = conn_epoch_;
  const std::uint64_t id = next_request_id_++;
  std::string encoded = encode(id);
  // Stamp the calling thread's sampled trace context onto the frame —
  // only on a connection that negotiated the feature; against anything
  // else the context is silently dropped (WIRE_PROTOCOL.md §5.4).
  if ((negotiated_features_ & kFeatureTracePropagation) != 0) {
    const TraceContext& trace = CurrentTrace();
    if (trace.sampled()) {
      StampTraceExtension(&encoded, trace.id, kTraceFlagSampled, trace.hop);
    }
  }
  auto waiter = std::make_shared<Waiter>();
  pending_.emplace(id, waiter);

  StatusOr<Frame> result = Status::Unavailable("request not sent");
  const Status sent = SendLocked(encoded, deadline_ms);
  if (!sent.ok()) {
    pending_.erase(id);
    if (state_ == ConnState::kUp && conn_epoch_ == epoch) {
      // The write side is gone; the whole connection is. Fail fast for
      // everyone rather than letting them ride out their timeouts.
      FailPendingLocked(sent);
    }
    result = sent;
  } else {
    while (!waiter->done) {
      if (cv_.wait_until(lock, TimePointFromMillis(deadline_ms)) ==
              std::cv_status::timeout &&
          !waiter->done) {
        break;
      }
    }
    if (waiter->done) {
      result = std::move(waiter->result);
    } else {
      // Abandon the id: the reader drops the late response as stale.
      // The connection stays up — other callers are still on it.
      pending_.erase(id);
      result = Status::Unavailable(StringPrintf(
          "request timed out after %dms", request_timeout_ms));
    }
  }
  return result;
}

Status RecClient::SendLocked(const std::string& bytes,
                             std::int64_t deadline_ms) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const std::int64_t remaining = deadline_ms - SteadyMillis();
    if (remaining <= 0) return Status::Unavailable("request send timed out");
    RTREC_RETURN_IF_ERROR(WaitReady(fd_.get(), /*for_read=*/false,
                                    static_cast<int>(remaining)));
    ssize_t n = write(fd_.get(), bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(StringPrintf("send: %s", strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> RecClient::ReadFrameLocked(std::int64_t deadline_ms) {
  while (true) {
    const std::int64_t remaining = deadline_ms - SteadyMillis();
    if (remaining <= 0) return Status::Unavailable("handshake timed out");
    StatusOr<Frame> frame =
        ReadPoll(static_cast<int>(std::min<std::int64_t>(remaining, 250)));
    if (frame.status().IsNotFound()) continue;
    return frame;
  }
}

// ---------------------------------------------------------------------------
// RPC surface.

Status RecClient::Ping() {
  StatusOr<Frame> frame =
      Call([](std::uint64_t id) { return EncodePingRequest(id); });
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kPongResponse) return Status::OK();
  if (frame->type == MessageType::kErrorResponse) {
    auto error = DecodeErrorResponse(*frame);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  return Status::Internal(StringPrintf("unexpected response %s to ping",
                                       MessageTypeToString(frame->type)));
}

StatusOr<std::string> RecClient::Stats() {
  StatusOr<Frame> frame =
      Call([](std::uint64_t id) { return EncodeStatsRequest(id); });
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kStatsResponse) {
    return DecodeStatsResponse(*frame);
  }
  if (frame->type == MessageType::kErrorResponse) {
    auto error = DecodeErrorResponse(*frame);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  return Status::Internal(StringPrintf("unexpected response %s to stats",
                                       MessageTypeToString(frame->type)));
}

StatusOr<std::vector<ScoredVideo>> RecClient::Recommend(
    const RecRequest& request) {
  StatusOr<RecommendReply> reply = RecommendDetailed(request);
  RTREC_RETURN_IF_ERROR(reply.status());
  return std::move(reply->videos);
}

StatusOr<RecommendReply> RecClient::RecommendDetailed(
    const RecRequest& request) {
  StatusOr<Frame> frame = Call([&request](std::uint64_t id) {
    return EncodeRecommendRequest(id, request);
  });
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kRecommendResponse) {
    return DecodeRecommendReply(*frame);
  }
  if (frame->type == MessageType::kErrorResponse) {
    auto error = DecodeErrorResponse(*frame);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  return Status::Internal(StringPrintf("unexpected response %s to recommend",
                                       MessageTypeToString(frame->type)));
}

Status RecClient::Observe(const UserAction& action) {
  return ExpectAck(Call([&action](std::uint64_t id) {
    return EncodeObserveRequest(id, action);
  }));
}

Status RecClient::RegisterProfile(UserId user, const UserProfile& profile) {
  return ExpectAck(Call([&user, &profile](std::uint64_t id) {
    return EncodeRegisterProfileRequest(id, user, profile);
  }));
}

Status RecClient::ExpectAck(const StatusOr<Frame>& frame) {
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kAckResponse) return Status::OK();
  if (frame->type == MessageType::kErrorResponse) {
    auto error = DecodeErrorResponse(*frame);
    if (!error.ok()) return error.status();
    return WireErrorToStatus(*error);
  }
  return Status::Internal(StringPrintf("unexpected response %s, wanted ack",
                                       MessageTypeToString(frame->type)));
}

}  // namespace rtrec
