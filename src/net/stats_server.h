#ifndef RTREC_NET_STATS_SERVER_H_
#define RTREC_NET_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "net/socket.h"

namespace rtrec {

namespace obs {
class SpanCollector;
}  // namespace obs

/// Minimal HTTP endpoint exposing a MetricsRegistry in Prometheus
/// text-format (0.0.4) — the `--stats-port` behind `examples/serve.cpp`,
/// so a stock Prometheus (or curl) can scrape the serving stack without
/// speaking the rtrec wire protocol.
///
/// Deliberately tiny: one accept-loop thread, one connection at a time,
/// Connection: close. Routing is by request path only:
///   "/" and "/metrics"  → full registry scrape (text-format 0.0.4)
///   "/quality"          → scrape narrowed to the `quality_*` section
///   "/healthz"          → 200 "ok shard=<id>" liveness probe
///   "/traces"           → Chrome trace-event JSON of finished traces
///                         (Options::spans; 404 when unset)
///   "/traces/slow"      → slowest-N traces with per-stage breakdown
///   anything else       → 404
/// Scrapes arrive every few seconds from one collector; this is not a
/// web server and does not try to be one.
class StatsServer {
 public:
  struct Options {
    /// IPv4 address to bind; loopback by default.
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; read it back via port().
    std::uint16_t port = 0;
    /// Shard id reported by /healthz (and useful to tell multi-shard
    /// deployments apart when each shard runs its own stats port).
    int shard_id = 0;
    /// When set, /traces and /traces/slow serve this collector's export
    /// JSON (obs/span_collector.h). Null answers those paths with 404.
    obs::SpanCollector* spans = nullptr;
    /// Export native Prometheus histogram families (cumulative
    /// `_bucket{le=...}`) alongside the summary lines on full scrapes.
    bool native_histograms = false;
  };

  /// Serves scrapes of `registry` (not owned; must outlive the server).
  StatsServer(MetricsRegistry* registry, Options options);
  ~StatsServer();  ///< Stops the server if still running.

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds, listens, and spawns the accept-loop thread.
  Status Start();

  /// Stops accepting and joins the thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (useful with Options::port == 0). 0 before Start.
  std::uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeOne(int fd);

  MetricsRegistry* registry_;
  Options options_;

  UniqueFd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  Counter* scrapes_ = nullptr;
  std::thread thread_;
};

}  // namespace rtrec

#endif  // RTREC_NET_STATS_SERVER_H_
