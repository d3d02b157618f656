#ifndef RTREC_NET_REC_CLIENT_H_
#define RTREC_NET_REC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

namespace rtrec {

/// Client for the rtrec wire protocol over TCP.
///
/// Each connection sends a Hello at connect to negotiate trace
/// propagation (docs/WIRE_PROTOCOL.md §5); a Hello error fails the
/// connect. Calls then PIPELINE: any number of threads may have calls in
/// flight on the one connection at once; a background reader matches
/// responses to callers by request id, out of order.
///
/// Transport errors (connection refused/reset, timeout) surface as
/// Unavailable; if Options::auto_reconnect is set, the client retries
/// the call — re-encoded under a FRESH request id, so a late response
/// to the timed-out attempt is dropped as stale instead of being
/// mistaken for the retry's answer — with exponential backoff + jitter,
/// up to Options::max_retries attempts and never past
/// Options::total_deadline_ms. A call timeout does NOT tear down the
/// connection (other callers' requests are still in flight on it);
/// only transport failures do. The *connect* path retries under the
/// same policy — both the lazy connect inside a call and the eager
/// Connect() — so a connection refused while a server restarts rides
/// out the recovery window instead of surfacing immediately.
/// Typed server errors (net/wire.h
/// WireError) are mapped through WireErrorToStatus — notably OVERLOADED
/// becomes Unavailable and is never retried automatically, since
/// retrying into an overloaded server makes the overload worse.
///
/// Retried Observe/RegisterProfile calls are at-least-once: a transport
/// error after the server applied the action replays it. Both RPCs are
/// idempotent enough in practice (profile writes are, action replays
/// only double-count one engagement) for this to be the right trade.
class RecClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    int connect_timeout_ms = 1'000;
    int request_timeout_ms = 5'000;
    /// Master switch for transport-level retries.
    bool auto_reconnect = true;
    /// Retries after the first attempt (so max_retries + 1 attempts).
    /// Negative means "no attempt cap": keep retrying with backoff until
    /// total_deadline_ms runs out — the right shape for riding out a
    /// supervised shard restart.
    int max_retries = 3;
    /// First backoff; doubles per retry up to retry_backoff_max_ms, with
    /// up to 100% uniform jitter added to decorrelate retry storms.
    int retry_backoff_initial_ms = 10;
    int retry_backoff_max_ms = 500;
    /// Budget across all attempts of one call, backoffs included.
    int total_deadline_ms = 10'000;
    /// Counter sink for "client.retries" / "client.stale_responses";
    /// null disables.
    MetricsRegistry* metrics = nullptr;
  };

  explicit RecClient(Options options);
  ~RecClient();  ///< Fails in-flight calls with Unavailable and closes.

  RecClient(const RecClient&) = delete;
  RecClient& operator=(const RecClient&) = delete;

  /// Establishes the connection eagerly (calls connect lazily, so this
  /// is optional). Under Options::auto_reconnect a refused or timed-out
  /// connect retries with exponential backoff + jitter per the retry
  /// policy, so connecting to a server that is still coming up (or
  /// restarting) succeeds as soon as it binds. Set auto_reconnect false
  /// to fail fast at startup instead.
  Status Connect();

  bool connected() const;

  /// Whether the live connection negotiated the trace-propagation
  /// feature (docs/WIRE_PROTOCOL.md §5.4). When true, calls made while
  /// the calling thread carries a sampled TraceContext stamp the trace
  /// extension onto their request frames; when false (a server that did
  /// not ack the feature) the context is silently dropped and the
  /// request is unchanged.
  bool trace_propagation_negotiated() const;

  /// Responses that arrived for requests nobody was waiting on any more
  /// (late answers to timed-out attempts). They are dropped by design.
  std::uint64_t stale_responses_dropped() const {
    return stale_responses_.load(std::memory_order_relaxed);
  }

  /// Round-trip health check.
  Status Ping();

  /// Ping-based liveness probe with a hard deadline: one attempt, no
  /// retries, connect and round-trip each bounded by `deadline_ms` (so a
  /// cold probe answers within 2x of it). True iff the server answered
  /// in time. The building block for circuit-breaker
  /// health probes (cluster/cluster_client.h) and readiness gating
  /// (scripts/cluster.sh via examples/rec_ping) — a probe must answer
  /// "dead or alive" in bounded time, never ride the retry policy.
  bool Healthy(int deadline_ms = 250);

  /// Fetches the server's metrics as Prometheus text-format (0.0.4).
  /// Like Ping, answered even while the server is shedding load.
  StatusOr<std::string> Stats();

  /// Remote RecommendationService::Recommend.
  StatusOr<std::vector<ScoredVideo>> Recommend(const RecRequest& request);

  /// Like Recommend, but surfaces the full reply including the DEGRADED
  /// flag, so callers can tell a fallback answer from an engine answer.
  StatusOr<RecommendReply> RecommendDetailed(const RecRequest& request);

  /// Remote RecommendationService::Observe. Acknowledged (the server
  /// replies after applying), so a returned OK means the action landed.
  Status Observe(const UserAction& action);

  /// Remote RecommendationService::RegisterProfile.
  Status RegisterProfile(UserId user, const UserProfile& profile);

 private:
  /// Re-encodes one request under a fresh id (retries must not reuse
  /// ids — a stale response would satisfy the wrong attempt).
  using EncodeFn = std::function<std::string(std::uint64_t request_id)>;

  enum class ConnState { kDown, kUp, kBroken };

  /// A caller parked on the pending map waiting for its response.
  struct Waiter {
    bool done = false;
    StatusOr<Frame> result = Status::Unavailable("response pending");
  };

  Status EnsureConnectedLocked(std::unique_lock<std::mutex>& lock,
                               int connect_timeout_ms);
  Status OpenTransportLocked(int timeout_ms);
  /// Synchronous Hello feature negotiation, run before the reader
  /// starts (docs/WIRE_PROTOCOL.md §5).
  Status HandshakeLocked(std::int64_t deadline_ms);
  /// kBroken -> kDown: joins the dead reader (outside the lock) and
  /// resets transport state. Safe to race from several callers.
  void CleanupBrokenLocked(std::unique_lock<std::mutex>& lock);

  /// Background reader: drains frames, completes waiters by request id.
  void ReaderLoop(std::uint64_t epoch);
  /// One poll step for the reader. NotFound = nothing yet; any other
  /// error is fatal for the connection.
  StatusOr<Frame> ReadPoll(int timeout_ms);
  void CompletePending(Frame frame);
  void FailPending(const Status& status, std::uint64_t epoch);
  /// Fails every waiter and marks the connection broken. Caller holds
  /// mu_ and has already checked the epoch.
  void FailPendingLocked(const Status& status);

  /// Retry wrapper (backoff + fresh ids) around CallOnce.
  StatusOr<Frame> Call(const EncodeFn& encode);
  StatusOr<Frame> CallOnce(const EncodeFn& encode, int connect_timeout_ms,
                           int request_timeout_ms);
  /// Blocking raw-byte send on the live socket. Caller holds mu_.
  Status SendLocked(const std::string& bytes, std::int64_t deadline_ms);
  /// Blocking raw frame read; only legal while the reader is not
  /// running (handshake). Caller holds mu_.
  StatusOr<Frame> ReadFrameLocked(std::int64_t deadline_ms);

  /// Expects an Ack (or a typed error) for observe/register calls.
  Status ExpectAck(const StatusOr<Frame>& frame);

  Options options_;
  Counter* retries_ = nullptr;
  Counter* stale_counter_ = nullptr;
  std::atomic<std::uint64_t> stale_responses_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  ConnState state_ = ConnState::kDown;
  bool cleanup_in_progress_ = false;
  UniqueFd fd_;
  FrameDecoder decoder_;             // Reader/handshake only
  std::thread reader_;
  std::atomic<bool> reader_stop_{false};
  std::uint64_t conn_epoch_ = 0;     // bumped per successful connect
  std::uint32_t negotiated_features_ = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<Waiter>> pending_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace rtrec

#endif  // RTREC_NET_REC_CLIENT_H_
