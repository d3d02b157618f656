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
#include "net/shm_transport.h"
#include "obs/span_collector.h"

namespace rtrec {
namespace {

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
    explicit Connection(int raw_fd, std::size_t max_frame_bytes)
        : fd(raw_fd), decoder(max_frame_bytes) {}

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
      auto conn = std::make_unique<Connection>(
          fd, server_->options_.max_frame_bytes);
      conn->ctx.rpc_latency = &server_->tcp_latency_;
      conn->last_active_ms = SteadyMillis();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
        RTREC_LOG(kError) << "epoll_ctl(add conn): " << strerror(errno);
        continue;  // UniqueFd closes the socket.
      }
      conns_.emplace(fd, std::move(conn));
      server_->metrics_->GetGauge("net.server.connections.active")->Add(1);
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

  /// Drains the socket and handles every complete frame. Returns false
  /// if the connection must be closed now (EOF or fatal error).
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
        QueueResponse(conn,
                      EncodeErrorResponse(0, WireError::kMalformedFrame,
                                          frame.status().message()));
        conn->close_after_flush = true;
      }
    }
    return true;
  }

  void HandleFrame(Connection* conn, const Frame& frame) {
    server_->DispatchFrame(frame, &conn->ctx,
                           [this, conn](std::string&& bytes) {
                             QueueResponse(conn, std::move(bytes));
                           });
    if (conn->ctx.close_connection) conn->close_after_flush = true;
  }

  void QueueResponse(Connection* conn, std::string bytes) {
    conn->outq.push_back(std::move(bytes));
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
    server_->metrics_->GetGauge("net.server.connections.active")->Add(-1);
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
      server_->metrics_->GetCounter("net.server.connections.idle_closed")
          ->Increment();
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

namespace {

/// Resolves "<transport>.<rpc>.latency_us" for every RPC the server
/// times.
RecServer::RpcLatency ResolveRpcLatency(MetricsRegistry* metrics,
                                        const std::string& transport) {
  const auto histogram = [&](const char* rpc) {
    return metrics->GetHistogram(transport + "." + rpc + ".latency_us");
  };
  RecServer::RpcLatency latency;
  latency.ping = histogram("ping");
  latency.stats = histogram("stats");
  latency.recommend = histogram("recommend");
  latency.batch_recommend = histogram("batch_recommend");
  latency.observe = histogram("observe");
  latency.register_profile = histogram("register_profile");
  return latency;
}

}  // namespace

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
  batched_requests_ = metrics_->GetCounter("net.v2.batched_requests");
  bytes_in_ = metrics_->GetCounter("net.server.bytes.in");
  bytes_out_ = metrics_->GetCounter("net.server.bytes.out");
  pipelined_inflight_ = metrics_->GetGauge("net.server.pipelined_inflight");
  tcp_latency_ = ResolveRpcLatency(metrics_, "net.server.rpc");
  if (!options_.shm_name.empty()) {
    shm_latency_ = ResolveRpcLatency(metrics_, "shm.rpc");
  }
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_in_flight < 1) options_.max_in_flight = 1;
  if (options_.spans != nullptr) {
    obs::SpanCollector* spans = options_.spans;
    span_names_.rpc_recommend = spans->InternName("rpc.recommend");
    span_names_.rpc_batch = spans->InternName("rpc.batch_recommend");
    span_names_.rpc_observe = spans->InternName("rpc.observe");
    span_names_.rpc_register = spans->InternName("rpc.register_profile");
    span_names_.decode = spans->InternName("decode");
    span_names_.engine = spans->InternName("engine");
    span_names_.respond = spans->InternName("respond");
  }
}

void RecServer::DispatchFrame(const Frame& frame, RequestContext* ctx,
                              const SendFn& send) {
  // Hello is connection setup, not traffic: keeping it out of
  // net.server.requests preserves that counter's meaning (RPCs served).
  if (frame.type == MessageType::kHelloRequest) {
    hellos_->Increment();
  } else {
    requests_->Increment();
  }
  // Sampled by scrapes: how many decoded-but-unanswered requests exist
  // right now across all connections and transports. With inline
  // handling this tracks handler concurrency, and it spikes when
  // pipelined batches queue up behind a slow RPC.
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
    send(EncodeErrorResponse(
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
      ScopedLatencyTimer timer(ctx->rpc_latency->ping);
      send(EncodePongResponse(frame.request_id));
      break;
    }
    case MessageType::kStatsRequest: {
      // Observability bypasses admission control like ping does: a
      // scrape must still answer while the server is shedding load.
      ScopedLatencyTimer timer(ctx->rpc_latency->stats);
      metrics_->GetCounter("net.server.stats_scrapes")->Increment();
      // Keep the whole frame under the peer's likely cap: leave room
      // for the length prefix, header, and body length field.
      const std::size_t max_text = options_.max_frame_bytes > 64
                                       ? options_.max_frame_bytes - 64
                                       : 0;
      send(EncodeStatsResponse(frame.request_id, metrics_->PrometheusText(),
                               max_text));
      break;
    }
    case MessageType::kHelloRequest:
      HandleHello(frame, ctx, send);
      break;
    case MessageType::kBatchRecommendRequest:
    case MessageType::kRecommendRequest:
    case MessageType::kObserveRequest:
    case MessageType::kRegisterProfileRequest:
      HandleServiceRpc(frame, ctx, send);
      break;
    default:
      SendUnknownType(frame, send);
      break;
  }
  pipelined_inflight_->Add(-1);
}

void RecServer::SendUnknownType(const Frame& frame, const SendFn& send) {
  protocol_errors_->Increment();
  send(EncodeErrorResponse(
      frame.request_id, WireError::kUnknownType,
      StringPrintf("server does not handle type 0x%02x",
                   static_cast<unsigned>(frame.type))));
}

void RecServer::HandleHello(const Frame& frame, RequestContext* ctx,
                            const SendFn& send) {
  StatusOr<HelloRequest> hello = DecodeHelloRequest(frame);
  if (!hello.ok()) {
    protocol_errors_->Increment();
    send(EncodeErrorResponse(frame.request_id, WireError::kMalformedFrame,
                             hello.status().message()));
    return;
  }
  if (hello->min_version > kWireVersionV2 ||
      hello->max_version < kWireVersionV2) {
    protocol_errors_->Increment();
    send(EncodeErrorResponse(
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
  reply.max_batch = static_cast<std::uint32_t>(kMaxBatchedRequests);
  send(EncodeHelloResponse(frame.request_id, reply));
}

/// The RPCs that reach the RecommendationService; all sit behind the
/// in-flight admission gate (a batch holds one slot for its whole run).
void RecServer::HandleServiceRpc(const Frame& frame, RequestContext* ctx,
                                 const SendFn& send) {
  if (!TryAcquireInFlight()) {
    metrics_->GetCounter("net.server.requests.shed")->Increment();
    send(EncodeErrorResponse(
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
  if (options_.handler_delay_for_test_ms > 0) {
    // Inside the recorder window so the injected latency is also visible
    // to tail capture — admission tests only need the slot held.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.handler_delay_for_test_ms));
  }
  const auto send_decode_error = [this, &frame, &send](const Status& status) {
    // Parsed structurally but the body would not decode: the stream is
    // still framed, so answer and keep the connection.
    protocol_errors_->Increment();
    send(EncodeErrorResponse(frame.request_id, WireError::kMalformedFrame,
                             status.message()));
  };
  switch (frame.type) {
    case MessageType::kRecommendRequest: {
      ScopedLatencyTimer timer(ctx->rpc_latency->recommend);
      StatusOr<RecRequest> request = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeRecommendRequest(frame);
      }();
      if (!request.ok()) {
        send_decode_error(request.status());
        break;
      }
      RecommendOutcome outcome = [&] {
        const auto span = recorder.Span(span_names_.engine);
        return RecommendWithFallback(*request);
      }();
      {
        const auto span = recorder.Span(span_names_.respond);
        if (outcome.ok) {
          send(EncodeRecommendResponse(frame.request_id, outcome.videos,
                                       outcome.flags));
        } else {
          send(EncodeErrorResponse(frame.request_id, outcome.error,
                                   outcome.message));
        }
      }
      break;
    }
    case MessageType::kBatchRecommendRequest: {
      ScopedLatencyTimer timer(ctx->rpc_latency->batch_recommend);
      StatusOr<std::vector<RecRequest>> batch = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeBatchRecommendRequest(frame);
      }();
      if (!batch.ok()) {
        send_decode_error(batch.status());
        break;
      }
      batched_requests_->Increment(batch->size());
      std::vector<BatchRecommendItem> items;
      items.reserve(batch->size());
      {
        const auto span = recorder.Span(span_names_.engine);
        for (const RecRequest& request : *batch) {
          RecommendOutcome outcome = RecommendWithFallback(request);
          BatchRecommendItem item;
          if (outcome.ok) {
            item.reply.flags = outcome.flags;
            item.reply.videos = std::move(outcome.videos);
          } else {
            item.error = static_cast<std::uint8_t>(outcome.error);
          }
          items.push_back(std::move(item));
        }
      }
      {
        const auto span = recorder.Span(span_names_.respond);
        send(EncodeBatchRecommendResponse(frame.request_id, items));
      }
      break;
    }
    case MessageType::kObserveRequest: {
      ScopedLatencyTimer timer(ctx->rpc_latency->observe);
      StatusOr<UserAction> action = [&] {
        const auto span = recorder.Span(span_names_.decode);
        return DecodeObserveRequest(frame);
      }();
      if (!action.ok()) {
        send_decode_error(action.status());
        break;
      }
      {
        const auto span = recorder.Span(span_names_.engine);
        service_->Observe(*action);
      }
      send(EncodeAckResponse(frame.request_id));
      break;
    }
    case MessageType::kRegisterProfileRequest: {
      ScopedLatencyTimer timer(ctx->rpc_latency->register_profile);
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
      send(EncodeAckResponse(frame.request_id));
      break;
    }
    default:
      break;  // Unreachable: caller dispatched on type.
  }
  recorder.Finish(
      frame.type == MessageType::kRecommendRequest ? span_names_.rpc_recommend
      : frame.type == MessageType::kBatchRecommendRequest
          ? span_names_.rpc_batch
      : frame.type == MessageType::kObserveRequest ? span_names_.rpc_observe
                                                   : span_names_.rpc_register);
  ReleaseInFlight();
}

/// The Recommend serving ladder: breaker-open -> straight fallback;
/// engine OK within its deadline -> full answer; engine error or
/// deadline breach -> fallback with the DEGRADED flag (or, with the
/// fallback disabled, a typed error / the late answer).
RecServer::RecommendOutcome RecServer::RecommendWithFallback(
    const RecRequest& request) {
  RecommendOutcome out;
  const int deadline_ms = options_.recommend_deadline_ms;
  const bool fallback_on = options_.degraded_fallback;
  if (fallback_on && InBreakerCooldown(SteadyMillis())) {
    out.videos = service_->FallbackRecommend(request);
    out.flags |= kRecommendFlagDegraded;
    out.ok = true;
  } else {
    const std::int64_t start_ms = SteadyMillis();
    StatusOr<std::vector<ScoredVideo>> recs = service_->Recommend(request);
    const std::int64_t elapsed_ms = SteadyMillis() - start_ms;
    if (!recs.ok() && recs.status().IsInvalidArgument()) {
      // The client's fault, not the engine's: no breaker bookkeeping,
      // no fallback masking.
      out.error = WireError::kBadRequest;
      out.message = recs.status().message();
      return out;
    }
    const bool late = deadline_ms > 0 && elapsed_ms > deadline_ms;
    if (late) {
      metrics_->GetCounter("net.server.deadline_breaches")->Increment();
    }
    if (recs.ok() && !late) {
      RecordEngineSuccess();
      out.videos = std::move(*recs);
      out.ok = true;
    } else {
      RecordEngineFailure(SteadyMillis());
      if (fallback_on) {
        out.videos = service_->FallbackRecommend(request);
        out.flags |= kRecommendFlagDegraded;
        out.ok = true;
      } else if (recs.ok()) {
        // Late but the fallback is disabled: the stale answer is all we
        // have.
        out.videos = std::move(*recs);
        out.ok = true;
      } else {
        out.error = WireError::kInternal;
        out.message = recs.status().message();
      }
    }
  }
  if (out.ok && (out.flags & kRecommendFlagDegraded) != 0) {
    metrics_->GetCounter("server.degraded_responses")->Increment();
  }
  return out;
}

RecServer::~RecServer() { Stop(); }

Status RecServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  auto listener =
      ListenTcp(options_.host, options_.port, options_.accept_backlog);
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

  if (!options_.shm_name.empty()) {
    ShmServer::Options shm_options;
    shm_options.slot_count = options_.shm_slot_count;
    shm_options.max_frame_bytes = options_.max_frame_bytes;
    shm_options.metrics = metrics_;
    auto shm = ShmServer::Create(
        options_.shm_name, shm_options,
        [this](const Frame& frame, ShmServer::ConnState* conn,
               const ShmServer::SendFn& send) {
          // Bridge the shm attachment's feature bits into the shared
          // dispatch path, timed by the shm latency histograms.
          RequestContext ctx;
          ctx.negotiated_features = conn->negotiated_features;
          ctx.rpc_latency = &shm_latency_;
          DispatchFrame(frame, &ctx,
                        [&send](std::string&& bytes) { send(std::move(bytes)); });
          conn->negotiated_features = ctx.negotiated_features;
          if (ctx.close_connection) conn->close = true;
        });
    if (!shm.ok()) {
      workers_.clear();
      listen_fd_.Reset();
      port_ = 0;
      return shm.status();
    }
    shm_server_ = std::move(*shm);
  }

  for (auto& worker : workers_) worker->StartThread();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  RTREC_LOG(kInfo) << "RecServer listening on " << options_.host << ":"
                   << port_ << " (" << options_.num_workers << " workers, "
                   << options_.max_in_flight << " in-flight cap"
                   << (shm_server_ ? ", shm " + options_.shm_name : "")
                   << ")";
  return Status::OK();
}

void RecServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  shm_server_.reset();  // Marks the segment down; clients see Unavailable.
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
      metrics_->GetCounter("net.server.connections.accepted")->Increment();
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
    metrics_->GetCounter("net.server.breaker_trips")->Increment();
    RTREC_LOG(kWarn) << "Recommend circuit breaker tripped; serving "
                        "degraded fallback for "
                     << options_.breaker_cooldown_ms << " ms";
  }
}

void RecServer::RecordEngineSuccess() {
  consecutive_engine_failures_.store(0, std::memory_order_relaxed);
}

}  // namespace rtrec
