#ifndef RTREC_NET_REC_SERVER_H_
#define RTREC_NET_REC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/recommendation_service.h"

namespace rtrec {

namespace obs {
class SpanCollector;
}  // namespace obs

/// The network front of the serving stack: an epoll-based TCP server
/// speaking the rtrec wire protocol (net/wire.h) over a
/// RecommendationService.
///
/// Threading model:
///  - one acceptor thread owns the listening socket and hands accepted
///    connections to the workers round-robin;
///  - N worker threads each run an epoll event loop over their share of
///    the connections (a connection lives on one worker for its whole
///    lifetime, so per-connection state needs no locking);
///  - request handling runs inline on the worker: decode, call the
///    service, encode, flush. The service itself is thread-safe, so
///    workers call it concurrently.
///
/// Pipelining: every frame carries a request id and the server answers
/// in whatever order handling completes, so a client may keep many
/// requests in flight per connection (docs/WIRE_PROTOCOL.md §6).
/// Responses are gathered with writev from a queue of encoded frames —
/// one syscall flushes many pipelined replies.
///
/// Backpressure: a global in-flight gate caps concurrently handled
/// service RPCs. When the cap is reached, the request is answered
/// immediately with an OVERLOADED error instead of queueing — bounded
/// work, explicit shedding, client decides whether to retry. Pings are
/// exempt so health checks stay responsive under load.
///
/// Malformed input: a structurally corrupt stream (bad length prefix)
/// gets one typed MALFORMED_FRAME error and the connection is closed;
/// an undecodable body on an intact frame gets a typed error and the
/// connection stays open. Idle connections are reaped after
/// Options::idle_timeout_ms.
///
/// Graceful degradation: Recommend carries a latency budget
/// (Options::recommend_deadline_ms) and a circuit breaker. When the
/// engine errors, breaches the budget, or the breaker is open, the
/// request is always answered from the demographic hot-video fallback
/// and flagged DEGRADED on the wire instead of failing — recommendations
/// keep flowing while the engine misbehaves. An engine failure never
/// becomes a wire error; only a request the service rejects as invalid
/// gets BAD_REQUEST.
class RecServer {
 public:
  struct Options {
    /// IPv4 address to bind; loopback by default.
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; read it back via port().
    std::uint16_t port = 0;
    /// Worker event-loop threads.
    int num_workers = 2;
    /// Max service RPCs handled concurrently before shedding.
    int max_in_flight = 256;
    /// Connections idle longer than this are closed. <= 0 disables.
    int idle_timeout_ms = 60'000;
    /// Registry for server metrics (counters, gauges, histograms under
    /// "net.server."). Null falls back to an internal registry.
    MetricsRegistry* metrics = nullptr;
    /// Request tracing (common/trace.h): when set, every admitted
    /// service RPC is a trace root (sampled 1-in-N by the tracer);
    /// sampled requests install a thread-current trace for the handler's
    /// duration, so service / engine / KV spans attach to it. The RPC's
    /// own latency is the "net.server.rpc.<rpc>.latency_us" histogram,
    /// recorded for every request. Null disables tracing at zero cost.
    Tracer* tracer = nullptr;
    /// Structured span recording (obs/span_collector.h): when set, every
    /// traced request stages per-stage spans and commits them to the
    /// collector at request end — head-sampled traces always, untraced
    /// requests when their e2e latency crosses trace_slow_us (tail
    /// capture). Null disables span recording; histogram tracing via
    /// `tracer` is unaffected.
    obs::SpanCollector* spans = nullptr;
    /// Tail-capture threshold in µs: an untraced request slower than
    /// this is retroactively kept as a slow-capture trace. <= 0
    /// disables tail capture (only head-sampled traces record spans).
    std::int64_t trace_slow_us = 0;

    /// Per-request latency budget for Recommend. When > 0 and the engine
    /// takes longer, the late answer is discarded in favour of the
    /// degraded fallback (flagged DEGRADED on the wire and counted in
    /// "server.degraded_responses", as for an engine error) and the
    /// request counts as an engine failure for the circuit breaker. 0
    /// disables the deadline.
    int recommend_deadline_ms = 0;
    /// Consecutive Recommend engine failures (errors or deadline
    /// breaches) that trip the circuit breaker. While tripped, Recommend
    /// is served straight from the fallback for breaker_cooldown_ms
    /// without touching the engine, giving it room to recover. <= 0
    /// disables the breaker.
    int breaker_failure_threshold = 8;
    int breaker_cooldown_ms = 2'000;
  };

  RecServer(RecommendationService* service, Options options);
  ~RecServer();  ///< Stops the server if still running.

  RecServer(const RecServer&) = delete;
  RecServer& operator=(const RecServer&) = delete;

  /// Binds, listens, and spawns the acceptor + worker threads.
  Status Start();

  /// Stops accepting, wakes every worker, closes all connections, and
  /// joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (useful with Options::port == 0). 0 before Start.
  std::uint16_t port() const { return port_; }

  /// The registry holding this server's metrics.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  class Worker;

  /// Per-connection protocol state.
  struct RequestContext {
    /// Feature bits acked in this connection's Hello (net/wire.h
    /// kFeature*); 0 until a Hello succeeds. A frame carrying the trace
    /// extension on a connection that did not negotiate
    /// kFeatureTracePropagation is a version violation.
    std::uint32_t negotiated_features = 0;
    /// Set by dispatch when the connection must be torn down after the
    /// queued responses flush (framing lost, version violation).
    bool close_connection = false;
  };

  void AcceptLoop();

  /// Handles one decoded frame from a worker's connection: the version
  /// gate, Hello, admission and the degraded ladder, then appends the
  /// encoded answer to the connection's output queue `out`. Thread-safe
  /// (every worker calls it concurrently, each with its own queues).
  void DispatchFrame(const Frame& frame, RequestContext* ctx,
                     std::deque<std::string>* out);
  void HandleHello(const Frame& frame, RequestContext* ctx,
                   std::deque<std::string>* out);
  void SendUnknownType(const Frame& frame, std::deque<std::string>* out);
  void HandleServiceRpc(const Frame& frame, RequestContext* ctx,
                        std::deque<std::string>* out);

  /// Result of one Recommend through the breaker/deadline/fallback
  /// ladder. Not ok only when the service rejected the request as
  /// invalid (BAD_REQUEST).
  struct RecommendOutcome {
    bool ok = false;
    std::uint8_t flags = 0;
    std::vector<ScoredVideo> videos;
    std::string message;  // The rejection's reason when !ok.
  };
  RecommendOutcome RecommendWithFallback(const RecRequest& request);

  /// Admission gate: true (and a slot held) if under max_in_flight.
  bool TryAcquireInFlight();
  void ReleaseInFlight();

  /// Circuit breaker over the Recommend engine path (worker threads
  /// share this state through atomics).
  bool InBreakerCooldown(std::int64_t now_ms) const;
  void RecordEngineFailure(std::int64_t now_ms);
  void RecordEngineSuccess();

  RecommendationService* service_;
  Options options_;

  /// Span names interned once at construction (interning takes a lock;
  /// the handler path must not). All zero when Options::spans is null.
  struct SpanNames {
    std::uint16_t rpc_recommend = 0;
    std::uint16_t rpc_observe = 0;
    std::uint16_t rpc_register = 0;
    std::uint16_t decode = 0;
    std::uint16_t engine = 0;
    std::uint16_t respond = 0;
  };
  SpanNames span_names_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // When options.metrics==0.
  MetricsRegistry* metrics_ = nullptr;
  // Every metric the server records, resolved once at construction:
  // registry lookups take its lock, so no request or socket event may.
  Counter* requests_ = nullptr;            // net.server.requests
  Counter* hellos_ = nullptr;              // net.v2.hellos
  Counter* protocol_errors_ = nullptr;     // net.server.protocol_errors
  Counter* shed_ = nullptr;                // net.server.requests.shed
  Counter* deadline_breaches_ = nullptr;   // net.server.deadline_breaches
  Counter* degraded_responses_ = nullptr;  // server.degraded_responses
  Counter* stats_scrapes_ = nullptr;       // net.server.stats_scrapes
  Counter* breaker_trips_ = nullptr;       // net.server.breaker_trips
  Counter* bytes_in_ = nullptr;            // net.server.bytes.in
  Counter* bytes_out_ = nullptr;           // net.server.bytes.out
  Gauge* pipelined_inflight_ = nullptr;    // net.server.pipelined_inflight
  // net.server.connections.{accepted,idle_closed,active}.
  Counter* accepted_ = nullptr;
  Counter* idle_closed_ = nullptr;
  Gauge* active_connections_ = nullptr;
  // "net.server.rpc.<rpc>.latency_us", one per RPC the server times.
  Histogram* ping_latency_ = nullptr;
  Histogram* stats_latency_ = nullptr;
  Histogram* recommend_latency_ = nullptr;
  Histogram* observe_latency_ = nullptr;
  Histogram* register_profile_latency_ = nullptr;

  UniqueFd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> in_flight_{0};
  std::atomic<std::size_t> next_worker_{0};
  std::atomic<int> consecutive_engine_failures_{0};
  std::atomic<std::int64_t> degraded_until_ms_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
};

}  // namespace rtrec

#endif  // RTREC_NET_REC_SERVER_H_
