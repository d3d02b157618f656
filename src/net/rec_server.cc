#include "net/rec_server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/span_collector.h"

namespace rtrec {
namespace {

/// listen(2) backlog of the acceptor's socket.
constexpr int kAcceptBacklog = 128;

std::int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker: one epoll event loop owning a share of the connections.

class RecServer::Worker {
 public:
  Worker(RecServer* server, int index) : server_(server), index_(index) {}

  ~Worker() {
    // Connections normally close when the loop exits; pending fds that
    // were never adopted still need closing.
    for (int fd : pending_) ::close(fd);
  }

  Status Init() {
    epoll_fd_.Reset(epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) {
      return Status::Internal(
          StringPrintf("epoll_create1: %s", strerror(errno)));
    }
    wake_fd_.Reset(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!wake_fd_.valid()) {
      return Status::Internal(StringPrintf("eventfd: %s", strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_.get();
    if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0) {
      return Status::Internal(
          StringPrintf("epoll_ctl(wakeup): %s", strerror(errno)));
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Called from the acceptor thread: hand over an accepted socket.
  void AddConnection(int fd) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(fd);
    }
    Wake();
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Connection {
    explicit Connection(int raw_fd) : fd(raw_fd) {}

    bool HasPendingOutput() const { return !outq.empty(); }

    UniqueFd fd;
    FrameDecoder decoder;
    RequestContext ctx;
    /// Encoded response frames awaiting the socket, flushed with writev
    /// so a burst of pipelined replies leaves in one syscall. outpos is
    /// the partially-written offset into outq.front().
    std::deque<std::string> outq;
    std::size_t outpos = 0;
    std::int64_t last_active_ms = 0;
    bool close_after_flush = false;
    bool epollout_armed = false;
  };

  void Wake() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_.get(), &one, sizeof(one));
  }

  void Loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    while (!stop_.load(std::memory_order_acquire)) {
      int n = epoll_wait(epoll_fd_.get(), events, kMaxEvents, /*timeout=*/250);
      if (n < 0) {
        if (errno == EINTR) continue;
        RTREC_LOG(kError) << "worker " << index_
                          << " epoll_wait: " << strerror(errno);
        break;
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == wake_fd_.get()) {
          std::uint64_t drained;
          while (read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
          }
          AdoptPending();
        } else {
          HandleEvent(events[i].data.fd, events[i].events);
        }
      }
      SweepIdle();
    }
    // Close every connection this worker owns.
    while (!conns_.empty()) CloseConnection(conns_.begin()->first);
  }

  void AdoptPending() {
    std::vector<int> adopted;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      adopted.swap(pending_);
    }
    for (int fd : adopted) {
      if (stop_.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Connection>(fd);
      conn->last_active_ms = SteadyMillis();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
        RTREC_LOG(kError) << "epoll_ctl(add conn): " << strerror(errno);
        continue;  // UniqueFd closes the socket.
      }
      conns_.emplace(fd, std::move(conn));
      server_->active_connections_->Add(1);
    }
  }

  void HandleEvent(int fd, std::uint32_t events) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // Already closed this pass.
    Connection* conn = it->second.get();
    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConnection(fd);
      return;
    }
    if ((events & EPOLLIN) && !ReadAndHandle(conn)) {
      CloseConnection(fd);
      return;
    }
    if (!FlushWrites(conn)) {
      CloseConnection(fd);
      return;
    }
    if (conn->close_after_flush && !conn->HasPendingOutput()) {
      CloseConnection(fd);
    }
  }

  /// Reads until the socket is drained (a short read or EAGAIN) and
  /// handles every complete frame. Returns false if the connection must
  /// be closed now (EOF or fatal error).
  bool ReadAndHandle(Connection* conn) {
    char buf[64 * 1024];
    while (!conn->close_after_flush) {
      // An injected read fault plays as a peer that died mid-stream.
      if (!RTREC_FAULT_POINT("net.socket.read").ok()) return false;
      ssize_t n = read(conn->fd.get(), buf, sizeof(buf));
      if (n == 0) return false;  // Peer closed.
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      server_->bytes_in_->Increment(n);
      conn->last_active_ms = SteadyMillis();
      conn->decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      while (!conn->close_after_flush) {
        StatusOr<Frame> frame = conn->decoder.Next();
        if (frame.ok()) {
          HandleFrame(conn, *frame);
          continue;
        }
        if (frame.status().IsNotFound()) break;  // Partial frame: wait.
        // Structurally corrupt stream: framing is lost, so answer once
        // (request id unknowable -> 0) and drop the connection.
        server_->protocol_errors_->Increment();
        conn->outq.push_back(EncodeErrorResponse(
            0, WireError::kMalformedFrame, frame.status().message()));
        conn->close_after_flush = true;
      }
      // A short read drained the socket: stop without the read that
      // would only return EAGAIN. Epoll is level-triggered, so bytes
      // that arrive later report the socket readable again.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    }
    return true;
  }

  void HandleFrame(Connection* conn, const Frame& frame) {
    server_->DispatchFrame(frame, &conn->ctx, &conn->outq);
    if (conn->ctx.close_connection) conn->close_after_flush = true;
  }

  /// Writes as much buffered output as the socket accepts, gathering up
  /// to kMaxIov queued response frames per writev call. Returns false on
  /// a fatal write error.
  bool FlushWrites(Connection* conn) {
    constexpr int kMaxIov = 64;
    while (!conn->outq.empty()) {
      // An injected write fault plays as a connection reset under us.
      if (!RTREC_FAULT_POINT("net.socket.write").ok()) return false;
      struct iovec iov[kMaxIov];
      int iovcnt = 0;
      for (const std::string& chunk : conn->outq) {
        const std::size_t skip = iovcnt == 0 ? conn->outpos : 0;
        iov[iovcnt].iov_base = const_cast<char*>(chunk.data() + skip);
        iov[iovcnt].iov_len = chunk.size() - skip;
        if (++iovcnt == kMaxIov) break;
      }
      ssize_t n = writev(conn->fd.get(), iov, iovcnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      conn->last_active_ms = SteadyMillis();
      server_->bytes_out_->Increment(n);
      std::size_t consumed = static_cast<std::size_t>(n);
      while (consumed > 0) {
        const std::size_t front_left = conn->outq.front().size() - conn->outpos;
        if (consumed >= front_left) {
          consumed -= front_left;
          conn->outq.pop_front();
          conn->outpos = 0;
        } else {
          conn->outpos += consumed;
          consumed = 0;
        }
      }
    }
    // Arm EPOLLOUT only while output is pending.
    const bool want_out = conn->HasPendingOutput();
    if (want_out != conn->epollout_armed) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
      ev.data.fd = conn->fd.get();
      if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) < 0) {
        return false;
      }
      conn->epollout_armed = want_out;
    }
    return true;
  }

  void CloseConnection(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(it);  // UniqueFd closes the socket.
    server_->active_connections_->Add(-1);
  }

  void SweepIdle() {
    const int timeout_ms = server_->options_.idle_timeout_ms;
    if (timeout_ms <= 0) return;
    const std::int64_t now = SteadyMillis();
    if (now - last_sweep_ms_ < std::min<std::int64_t>(timeout_ms / 4 + 1, 1000))
      return;
    last_sweep_ms_ = now;
    std::vector<int> idle;
    for (const auto& [fd, conn] : conns_) {
      if (now - conn->last_active_ms > timeout_ms) idle.push_back(fd);
    }
    for (int fd : idle) {
      server_->idle_closed_->Increment();
      CloseConnection(fd);
    }
  }

  RecServer* server_;
  int index_;
  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex pending_mu_;
  std::vector<int> pending_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::int64_t last_sweep_ms_ = 0;
};

// ---------------------------------------------------------------------------
// RecServer.

RecServer::RecServer(RecommendationService* service, Options options)
    : service_(service), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  requests_ = metrics_->GetCounter("net.server.requests");
  hellos_ = metrics_->GetCounter("net.v2.hellos");
  protocol_errors_ = metrics_->GetCounter("net.server.protocol_errors");
  shed_ = metrics_->GetCounter("net.server.requests.shed");
  deadline_breaches_ = metrics_->GetCounter("net.server.deadline_breaches");
  degraded_responses_ = metrics_->GetCounter("server.degraded_responses");
  stats_scrapes_ = metrics_->GetCounter("net.server.stats_scrapes");
  breaker_trips_ = metrics_->GetCounter("net.server.breaker_trips");
  accepted_ = metrics_->GetCounter("net.server.connections.accepted");
  idle_closed_ = metrics_->GetCounter("net.server.connections.idle_closed");
  active_connections_ = metrics_->GetGauge("net.server.connections.active");
  bytes_in_ = metrics_->GetCounter("net.server.bytes.in");
  bytes_out_ = metrics_->GetCounter("net.server.bytes.out");
  pipelined_inflight_ = metrics_->GetGauge("net.server.pipelined_inflight");
  ping_latency_ = metrics_->GetHistogram("net.server.rpc.ping.latency_us");
  stats_latency_ = metrics_->GetHistogram("net.server.rpc.stats.latency_us");
  recommend_latency_ =
      metrics_->GetHistogram("net.server.rpc.recommend.latency_us");
  observe_latency_ =
      metrics_->GetHistogram("net.server.rpc.observe.latency_us");
  register_profile_latency_ =
      metrics_->GetHistogram("net.server.rpc.register_profile.latency_us");
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_in_flight < 1) options_.max_in_flight = 1;
  if (options_.spans != nullptr) {
    obs::SpanCollector* spans = options_.spans;
    span_names_.rpc_recommend = spans->InternName("rpc.recommend");
    span_names_.rpc_observe = spans->InternName("rpc.observe");
    span_names_.rpc_register = spans->InternName("rpc.register_profile");
    span_names_.decode = spans->InternName("decode");
    span_names_.engine = spans->InternName("engine");
    span_names_.respond = spans->InternName("respond");
  }
}

void RecServer::DispatchFrame(const Frame& frame, RequestContext* ctx,
                              std::deque<std::string>* out) {
  // Hello is connection setup, not traffic: keeping it out of
  // net.server.requests preserves that counter's meaning (RPCs served).
  if (frame.type == MessageType::kHelloRequest) {
    hellos_->Increment();
  } else {
    requests_->Increment();
  }
  // Sampled by scrapes: how many decoded-but-unanswered requests exist
  // right now across all connections. With inline handling this tracks
  // handler concurrency, and it spikes when pipelined bursts queue up
  // behind a slow RPC.
  pipelined_inflight_->Add(1);

  // Version gate (docs/WIRE_PROTOCOL.md §2): every frame carries
  // version 2. A trace extension (decoded into frame.has_trace) counts
  // as part of the version byte: on a connection that did not negotiate
  // the feature it is a version violation (§2.1).
  const bool trace_ok =
      !frame.has_trace ||
      (ctx->negotiated_features & kFeatureTracePropagation) != 0;
  if (frame.version != kWireVersionV2 || !trace_ok) {
    protocol_errors_->Increment();
    out->push_back(EncodeErrorResponse(
        frame.request_id, WireError::kBadVersion,
        frame.version != kWireVersionV2
            ? StringPrintf("frame version %u unsupported; server speaks %u",
                           frame.version, kWireVersionV2)
            : std::string("trace extension on a connection that did not "
                          "negotiate it")));
    ctx->close_connection = true;  // Framing discipline is gone.
    pipelined_inflight_->Add(-1);
    return;
  }
  switch (frame.type) {
    case MessageType::kPingRequest: {
      // Health checks bypass admission control by design.
      ScopedLatencyTimer timer(ping_latency_);
      out->push_back(EncodePongResponse(frame.request_id));
      break;
    }
    case MessageType::kStatsRequest: {
      // Observability bypasses admission control like ping does: a
      // scrape must still answer while the server is shedding load.
      ScopedLatencyTimer timer(stats_latency_);
      stats_scrapes_->Increment();
      // Keep the whole frame under the frame cap: leave room for the
      // length prefix, header, and body length field.
      out->push_back(EncodeStatsResponse(frame.request_id,
                                         metrics_->PrometheusText(),
                                         kDefaultMaxFrameBytes - 64));
      break;
    }
    case MessageType::kHelloRequest:
      HandleHello(frame, ctx, out);
      break;
    case MessageType::kRecommendRequest:
    case MessageType::kObserveRequest:
    case MessageType::kRegisterProfileRequest:
      HandleServiceRpc(frame, ctx, out);
      break;
    default:
      SendUnknownType(frame, out);
      break;
  }
  pipelined_inflight_->Add(-1);
}

void RecServer::SendUnknownType(const Frame& frame,
                                std::deque<std::string>* out) {
  protocol_errors_->Increment();
  out->push_back(EncodeErrorResponse(
      frame.request_id, WireError::kUnknownType,
      StringPrintf("server does not handle type 0x%02x",
                   static_cast<unsigned>(frame.type))));
}

void RecServer::HandleHello(const Frame& frame, RequestContext* ctx,
                            std::deque<std::string>* out) {
  StatusOr<HelloRequest> hello = DecodeHelloRequest(frame);
  if (!hello.ok()) {
    protocol_errors_->Increment();
    out->push_back(EncodeErrorResponse(frame.request_id,
                                       WireError::kMalformedFrame,
                                       hello.status().message()));
    return;
  }
  if (hello->min_version > kWireVersionV2 ||
      hello->max_version < kWireVersionV2) {
    protocol_errors_->Increment();
    out->push_back(EncodeErrorResponse(
        frame.request_id, WireError::kBadVersion,
        StringPrintf("client speaks wire versions [%u, %u]; server speaks "
                     "only %u",
                     hello->min_version, hello->max_version,
                     kWireVersionV2)));
    ctx->close_connection = true;  // No dialect in common.
    return;
  }
  // Feature bits: ack the intersection of what the client offered and
  // what this server supports.
  ctx->negotiated_features = hello->features & kFeatureTracePropagation;
  HelloReply reply;
  reply.features = ctx->negotiated_features;
  reply.max_in_flight_hint = static_cast<std::uint32_t>(options_.max_in_flight);
  out->push_back(EncodeHelloResponse(frame.request_id, reply));
}

/// The RPCs that reach the RecommendationService; all sit behind the
/// in-flight admission gate.
void RecServer::HandleServiceRpc(const Frame& frame, RequestContext* ctx,
                                 std::deque<std::string>* out) {
  if (!TryAcquireInFlight()) {
    shed_->Increment();
    out->push_back(EncodeErrorResponse(
        frame.request_id, WireError::kOverloaded,
        StringPrintf("in-flight cap %d reached; retry later",
                     options_.max_in_flight)));
    return;
  }
  // Every admitted service RPC is a trace boundary. A frame carrying a
  // sampled upstream context ADOPTS it — the root made the sampling
  // decision (Dapper semantics), so this shard's spans stitch into the
  // caller's trace by id instead of starting a fresh one. Everything
  // else mints a root here, head-sampled 1-in-N. The sampled context is
  // installed as the thread-current trace so spans recorded inside the
  // service (and the KV stores under it) nest under this request.
  Tracer* const tracer = options_.tracer;
  TraceContext trace;
  const bool adopt = frame.has_trace &&
                     (frame.trace_flags & kTraceFlagSampled) != 0 &&
                     (ctx->negotiated_features & kFeatureTracePropagation) != 0;
  if (tracer != nullptr) {
    trace = adopt ? tracer->AdoptTrace(frame.trace_id, frame.trace_hop)
                  : tracer->StartTrace();
  }
  std::optional<ScopedTraceContext> trace_scope;
  if (trace.sampled()) trace_scope.emplace(trace);
  // Structured spans: staged per-request, committed at Finish when the
  // trace is sampled or the request turns out slow (tail capture).
  obs::RequestRecorder recorder(options_.spans, trace, options_.trace_slow_us,
                                adopt ? obs::kSpanFlagAdopted : 0);
  const auto send_decode_error = [this, &frame, out](const Status& status) {
    // Parsed structurally but the body would not decode: the stream is
    // still framed, so answer and keep the connection.
    protocol_errors_->Increment();
    out->push_back(EncodeErrorResponse(
        frame.request_id, WireError::kMalformedFrame, status.message()));
  };
  // Clocks are milliseconds >= 0 from any epoch (WIRE_PROTOCOL §7.1,
  // §7.2). With both operands >= 0, no age `now - t` the stores compute
  // can overflow.
  const auto send_negative_clock = [&frame, out](const char* field) {
    out->push_back(EncodeErrorResponse(
        frame.request_id, WireError::kBadRequest,
        StringPrintf("%s must be >= 0 milliseconds", field)));
  };
  switch (frame.type) {
    case MessageType::kRecommendRequest: {
      ScopedLatencyTimer timer(recommend_latency_);
      StatusOr<RecRequest> request = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeRecommendRequest(frame);
      }();
      if (!request.ok()) {
        send_decode_error(request.status());
        break;
      }
      if (request->now < 0) {
        send_negative_clock("now");
        break;
      }
      RecommendOutcome outcome = [&] {
        const auto span = recorder.Span(span_names_.engine);
        return RecommendWithFallback(*request);
      }();
      {
        const auto span = recorder.Span(span_names_.respond);
        if (outcome.ok) {
          out->push_back(EncodeRecommendResponse(
              frame.request_id, outcome.videos, outcome.flags));
        } else {
          out->push_back(EncodeErrorResponse(
              frame.request_id, WireError::kBadRequest, outcome.message));
        }
      }
      break;
    }
    case MessageType::kObserveRequest: {
      ScopedLatencyTimer timer(observe_latency_);
      StatusOr<UserAction> action = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeObserveRequest(frame);
      }();
      if (!action.ok()) {
        send_decode_error(action.status());
        break;
      }
      if (action->time < 0) {
        send_negative_clock("time");
        break;
      }
      {
        const auto span = recorder.Span(span_names_.engine);
        service_->Observe(*action);
      }
      out->push_back(EncodeAckResponse(frame.request_id));
      break;
    }
    case MessageType::kRegisterProfileRequest: {
      ScopedLatencyTimer timer(register_profile_latency_);
      StatusOr<ProfileUpdate> update = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeRegisterProfileRequest(frame);
      }();
      if (!update.ok()) {
        send_decode_error(update.status());
        break;
      }
      {
        const auto span = recorder.Span(span_names_.engine);
        service_->RegisterProfile(update->user, update->profile);
      }
      out->push_back(EncodeAckResponse(frame.request_id));
      break;
    }
    default:
      break;  // Unreachable: caller dispatched on type.
  }
  recorder.Finish(
      frame.type == MessageType::kRecommendRequest ? span_names_.rpc_recommend
      : frame.type == MessageType::kObserveRequest ? span_names_.rpc_observe
                                                   : span_names_.rpc_register);
  ReleaseInFlight();
}

/// The Recommend serving ladder: breaker-open -> straight fallback;
/// engine OK within its deadline -> full answer; engine error or
/// deadline breach -> fallback with the DEGRADED flag.
RecServer::RecommendOutcome RecServer::RecommendWithFallback(
    const RecRequest& request) {
  RecommendOutcome out;
  bool degraded = InBreakerCooldown(SteadyMillis());
  if (!degraded) {
    const std::int64_t start_ms = SteadyMillis();
    StatusOr<std::vector<ScoredVideo>> recs = service_->Recommend(request);
    const std::int64_t elapsed_ms = SteadyMillis() - start_ms;
    if (!recs.ok() && recs.status().IsInvalidArgument()) {
      // The client's fault, not the engine's: no breaker bookkeeping,
      // no fallback masking.
      out.message = recs.status().message();
      return out;
    }
    const int deadline_ms = options_.recommend_deadline_ms;
    const bool late = deadline_ms > 0 && elapsed_ms > deadline_ms;
    if (late) {
      deadline_breaches_->Increment();
    }
    if (recs.ok() && !late) {
      RecordEngineSuccess();
      out.videos = std::move(*recs);
    } else {
      RecordEngineFailure(SteadyMillis());
      degraded = true;
    }
  }
  if (degraded) {
    out.videos = service_->FallbackRecommend(request);
    out.flags |= kRecommendFlagDegraded;
    degraded_responses_->Increment();
  }
  out.ok = true;
  return out;
}

RecServer::~RecServer() { Stop(); }

Status RecServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  auto listener =
      ListenTcp(options_.host, options_.port, kAcceptBacklog);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(*listener);
  auto port = LocalPort(listen_fd_.get());
  if (!port.ok()) return port.status();
  port_ = *port;

  workers_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>(this, i);
    RTREC_RETURN_IF_ERROR(worker->Init());
    workers_.push_back(std::move(worker));
  }

  for (auto& worker : workers_) worker->StartThread();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  RTREC_LOG(kInfo) << "RecServer listening on " << options_.host << ":"
                   << port_ << " (" << options_.num_workers << " workers, "
                   << options_.max_in_flight << " in-flight cap)";
  return Status::OK();
}

void RecServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
  workers_.clear();
  listen_fd_.Reset();
  port_ = 0;
  RTREC_LOG(kInfo) << "RecServer stopped";
}

void RecServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Status ready = WaitReady(listen_fd_.get(), /*for_read=*/true,
                             /*timeout_ms=*/250);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!ready.ok()) {
      if (ready.IsUnavailable()) continue;  // Poll timeout: re-check stop.
      RTREC_LOG(kError) << "acceptor poll failed: " << ready.ToString();
      break;
    }
    while (true) {
      int fd = accept4(listen_fd_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        RTREC_LOG(kWarn) << "accept4: " << strerror(errno);
        break;
      }
      // An injected accept fault drops the new connection on the floor,
      // as a listener hitting EMFILE or a dying acceptor would.
      if (!RTREC_FAULT_POINT("net.socket.accept").ok()) {
        ::close(fd);
        continue;
      }
      SetTcpNoDelay(fd);  // Best effort; a failure only costs latency.
      accepted_->Increment();
      const std::size_t target =
          next_worker_.fetch_add(1, std::memory_order_relaxed) %
          workers_.size();
      workers_[target]->AddConnection(fd);
    }
  }
}

bool RecServer::TryAcquireInFlight() {
  int current = in_flight_.load(std::memory_order_relaxed);
  while (current < options_.max_in_flight) {
    if (in_flight_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void RecServer::ReleaseInFlight() {
  in_flight_.fetch_sub(1, std::memory_order_release);
}

bool RecServer::InBreakerCooldown(std::int64_t now_ms) const {
  return now_ms < degraded_until_ms_.load(std::memory_order_acquire);
}

void RecServer::RecordEngineFailure(std::int64_t now_ms) {
  const int threshold = options_.breaker_failure_threshold;
  if (threshold <= 0) return;
  const int failures =
      consecutive_engine_failures_.fetch_add(1, std::memory_order_relaxed) +
      1;
  if (failures >= threshold) {
    degraded_until_ms_.store(now_ms + options_.breaker_cooldown_ms,
                             std::memory_order_release);
    consecutive_engine_failures_.store(0, std::memory_order_relaxed);
    breaker_trips_->Increment();
    RTREC_LOG(kWarn) << "Recommend circuit breaker tripped; serving "
                        "degraded fallback for "
                     << options_.breaker_cooldown_ms << " ms";
  }
}

void RecServer::RecordEngineSuccess() {
  consecutive_engine_failures_.store(0, std::memory_order_relaxed);
}

}  // namespace rtrec
