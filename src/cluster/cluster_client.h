#ifndef RTREC_CLUSTER_CLUSTER_CLIENT_H_
#define RTREC_CLUSTER_CLUSTER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/manifest.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/rec_client.h"

namespace rtrec {

/// Routing client for a sharded rtrec cluster — the same RecClient-shaped
/// API (Recommend/RecommendDetailed/Observe/RegisterProfile/Ping/Stats),
/// but each user-keyed request is routed to the shard process owning that
/// user's key slice via the consistent-hash ring over the manifest.
///
/// Failure is a first-class input:
///
///  - every shard has a circuit breaker: `breaker_failure_threshold`
///    consecutive transport failures open it for `breaker_cooldown_ms`,
///    during which the shard is skipped without paying its connect
///    timeout. After the cooldown, a Ping-based health probe
///    (RecClient::Healthy with a 250 ms deadline) decides half-open →
///    closed or another cooldown;
///  - a request whose owner shard is dead (breaker open or the call
///    fails with a transport error) fails over along the ring's
///    preference order to the next live shard. A failover Recommend is
///    answered by a process that does not hold the user's model slice —
///    its cold-user hot-video fallback — so the router marks the reply
///    DEGRADED (kRecommendFlagDegraded) whether or not the serving shard
///    did. Observe/RegisterProfile always fail over the same way,
///    trading a transiently split model slice for an ingest stream that
///    keeps flowing; the owner rejoins from its checkpoint and misses
///    only the outage window;
///  - only when every shard in the preference order is down does a call
///    surface Unavailable.
///
/// The underlying RecClients retry transport errors with backoff
/// themselves (Options::client); keep their retry budget short so
/// failover is fast — the cluster-level answer to a dead shard is the
/// next shard, not a long per-shard retry loop.
///
/// Thread-safe: breaker state is atomic and per-shard RecClients
/// serialize internally. Loadgen wanting parallelism should hold one
/// ClusterClient per thread, mirroring the RecClient guidance.
class ClusterClient {
 public:
  struct Options {
    /// The cluster membership. Required (must list >= 1 shard).
    ClusterManifest manifest;
    HashRing::Options ring;
    /// Template for the per-shard clients; host/port are overridden from
    /// the manifest. Defaults here favour fast failover over long
    /// per-shard persistence.
    RecClient::Options client = FastFailoverClientOptions();
    /// Consecutive transport failures that open a shard's breaker.
    /// <= 0 disables the breakers (every request probes the shard).
    int breaker_failure_threshold = 3;
    /// How long an open breaker skips the shard before a health probe
    /// may close it again.
    int breaker_cooldown_ms = 1'000;
    /// Counter sink for "cluster.router.*" / "cluster.shard.*"; null
    /// disables.
    MetricsRegistry* metrics = nullptr;
  };

  /// RecClient options tuned for routing: one quick retry, sub-second
  /// budget, so a dead shard costs milliseconds before failover.
  static RecClient::Options FastFailoverClientOptions();

  explicit ClusterClient(Options options);
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  /// The shard owning `user`'s key slice (ignores liveness).
  ShardId OwnerOf(UserId user) const;

  /// OK iff every shard in the manifest answers a ping — the cluster is
  /// fully up. Use ShardHealthy for a single shard.
  Status Ping();

  /// True iff every shard is healthy (readiness gating).
  bool Healthy();

  /// Direct Ping-based liveness probe of one shard (with the half-open
  /// probe's deadline); closes its breaker on success.
  bool ShardHealthy(ShardId shard);

  /// Merged scrape: a synthesized cluster header (shard count, per-shard
  /// up flags, summed request / CTR-join counters and the cluster-wide
  /// CTR they imply) followed by each live shard's Prometheus text in a
  /// comment-delimited section. Per-shard sections repeat metric names;
  /// scrape the shards' own stats ports for strict Prometheus ingestion.
  /// OK as long as at least one shard answered.
  StatusOr<std::string> Stats();

  StatusOr<std::vector<ScoredVideo>> Recommend(const RecRequest& request);

  /// Like Recommend but surfaces the DEGRADED flag: set by the serving
  /// shard (its engine failed) or by this router (the answer came from a
  /// failover shard that does not own the user's slice).
  StatusOr<RecommendReply> RecommendDetailed(const RecRequest& request);

  Status Observe(const UserAction& action);

  Status RegisterProfile(UserId user, const UserProfile& profile);

 private:
  struct Shard {
    ShardAddress address;
    std::unique_ptr<RecClient> client;
    std::atomic<int> consecutive_failures{0};
    /// 0 = breaker closed; otherwise the steady-clock ms until which the
    /// shard is skipped.
    std::atomic<std::int64_t> open_until_ms{0};
    /// Elects a single half-open prober among concurrent callers.
    std::atomic<bool> probe_in_flight{false};
    Counter* requests = nullptr;
    Counter* failures = nullptr;
  };

  /// True if the shard may be tried now: breaker closed, or half-open
  /// and the health probe just succeeded.
  bool Admitted(Shard& shard);
  void RecordFailure(Shard& shard);
  void RecordSuccess(Shard& shard);
  /// Runs the probe and settles the breaker; returns probe outcome.
  bool ProbeAndSettle(Shard& shard);

  /// Routes `call` along the preference order for `user`. On success
  /// sets *served_by to the shard index used. Transport failures
  /// (IsUnavailable) advance to the next shard; other errors surface
  /// immediately.
  Status RouteCall(UserId user,
                   const std::function<Status(RecClient&)>& call,
                   ShardId* served_by);

  Options options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Counter* router_requests_ = nullptr;
  Counter* router_failovers_ = nullptr;
  Counter* router_degraded_ = nullptr;
  Counter* router_errors_ = nullptr;
  Counter* breaker_trips_ = nullptr;
  Counter* probe_success_ = nullptr;
  Counter* probe_failure_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_CLUSTER_CLUSTER_CLIENT_H_
