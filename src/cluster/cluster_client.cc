#include "cluster/cluster_client.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "common/string_util.h"
#include "common/trace.h"

namespace rtrec {
namespace {

/// Deadline for the half-open Ping probe.
constexpr int kProbeTimeoutMs = 250;

std::int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// First sample of `name` in Prometheus text ("name value"); -1 if absent.
double ScrapeValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, name.size(), name) == 0 &&
        line.size() > name.size() && line[name.size()] == ' ') {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return -1.0;
}

}  // namespace

RecClient::Options ClusterClient::FastFailoverClientOptions() {
  RecClient::Options options;
  options.connect_timeout_ms = 250;
  options.request_timeout_ms = 1'000;
  options.max_retries = 1;
  options.retry_backoff_initial_ms = 5;
  options.retry_backoff_max_ms = 50;
  options.total_deadline_ms = 1'500;
  return options;
}

ClusterClient::ClusterClient(Options options)
    : options_(std::move(options)), ring_(options_.manifest.Ring(options_.ring)) {
  if (options_.metrics != nullptr) {
    router_requests_ = options_.metrics->GetCounter("cluster.router.requests");
    router_failovers_ =
        options_.metrics->GetCounter("cluster.router.failovers");
    router_degraded_ =
        options_.metrics->GetCounter("cluster.router.degraded_responses");
    router_errors_ = options_.metrics->GetCounter("cluster.router.errors");
    breaker_trips_ =
        options_.metrics->GetCounter("cluster.router.breaker_trips");
    probe_success_ =
        options_.metrics->GetCounter("cluster.router.probe_success");
    probe_failure_ =
        options_.metrics->GetCounter("cluster.router.probe_failure");
  }
  shards_.reserve(options_.manifest.shards.size());
  for (const ShardAddress& address : options_.manifest.shards) {
    auto shard = std::make_unique<Shard>();
    shard->address = address;
    RecClient::Options client_options = options_.client;
    client_options.host = address.host;
    client_options.port = address.port;
    client_options.metrics = options_.metrics;
    shard->client = std::make_unique<RecClient>(std::move(client_options));
    if (options_.metrics != nullptr) {
      const std::string prefix =
          StringPrintf("cluster.shard.%u.", static_cast<unsigned>(address.shard));
      shard->requests = options_.metrics->GetCounter(prefix + "requests");
      shard->failures = options_.metrics->GetCounter(prefix + "failures");
    }
    shards_.push_back(std::move(shard));
  }
}

ClusterClient::~ClusterClient() = default;

ShardId ClusterClient::OwnerOf(UserId user) const {
  StatusOr<ShardId> owner = ring_.OwnerOfUser(user);
  return owner.ok() ? *owner : 0;
}

bool ClusterClient::ProbeAndSettle(Shard& shard) {
  const bool healthy = shard.client->Healthy(kProbeTimeoutMs);
  if (healthy) {
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    shard.open_until_ms.store(0, std::memory_order_release);
    if (probe_success_ != nullptr) probe_success_->Increment();
  } else {
    shard.open_until_ms.store(SteadyMillis() + options_.breaker_cooldown_ms,
                              std::memory_order_release);
    if (probe_failure_ != nullptr) probe_failure_->Increment();
  }
  return healthy;
}

bool ClusterClient::Admitted(Shard& shard) {
  const std::int64_t open_until =
      shard.open_until_ms.load(std::memory_order_acquire);
  if (open_until == 0) return true;  // Breaker closed.
  if (SteadyMillis() < open_until) return false;  // Open, still cooling.
  // Half-open: elect one caller to probe; everyone else keeps skipping
  // until the probe settles the breaker one way or the other.
  if (shard.probe_in_flight.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  const bool healthy = ProbeAndSettle(shard);
  shard.probe_in_flight.store(false, std::memory_order_release);
  return healthy;
}

void ClusterClient::RecordFailure(Shard& shard) {
  if (shard.failures != nullptr) shard.failures->Increment();
  if (options_.breaker_failure_threshold <= 0) return;
  const int failures =
      shard.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.breaker_failure_threshold) {
    std::int64_t expected = 0;
    if (shard.open_until_ms.compare_exchange_strong(
            expected, SteadyMillis() + options_.breaker_cooldown_ms,
            std::memory_order_acq_rel)) {
      if (breaker_trips_ != nullptr) breaker_trips_->Increment();
    }
  }
}

void ClusterClient::RecordSuccess(Shard& shard) {
  shard.consecutive_failures.store(0, std::memory_order_relaxed);
  shard.open_until_ms.store(0, std::memory_order_release);
}

Status ClusterClient::RouteCall(
    UserId user, const std::function<Status(RecClient&)>& call,
    ShardId* served_by) {
  if (router_requests_ != nullptr) router_requests_->Increment();
  const std::vector<ShardId> order =
      ring_.PreferenceOrder(HashRing::KeyForUser(user));
  Status last = Status::Unavailable("cluster has no shards");
  std::uint8_t attempt = 0;
  for (const ShardId shard_id : order) {
    Shard& shard = *shards_[shard_id];
    if (!Admitted(shard)) {
      last = Status::Unavailable(StringPrintf(
          "shard %u breaker open", static_cast<unsigned>(shard_id)));
      continue;
    }
    if (shard.requests != nullptr) shard.requests->Increment();
    // Tag the propagated trace context with the attempt index, so a
    // stitched cross-shard trace shows which hop was the failover
    // (hop 0 = owner shard, hop 1 = first fallback, ...). The tagged
    // context only lives for this attempt; RecClient stamps it onto
    // the wire when the connection negotiated trace propagation.
    Status status;
    {
      TraceContext hop_trace = CurrentTrace();
      hop_trace.hop = attempt;
      std::optional<ScopedTraceContext> hop_scope;
      if (hop_trace.sampled()) hop_scope.emplace(hop_trace);
      status = call(*shard.client);
    }
    if (attempt < 255) ++attempt;
    if (status.ok()) {
      RecordSuccess(shard);
      if (served_by != nullptr) *served_by = shard_id;
      return status;
    }
    if (!status.IsUnavailable()) return status;  // Typed server error.
    RecordFailure(shard);
    last = std::move(status);
  }
  if (router_errors_ != nullptr) router_errors_->Increment();
  return last;
}

Status ClusterClient::Ping() {
  for (const auto& shard : shards_) {
    Status status = shard->client->Ping();
    if (!status.ok()) {
      return Status::Unavailable(StringPrintf(
          "shard %u: %s", static_cast<unsigned>(shard->address.shard),
          status.ToString().c_str()));
    }
  }
  return Status::OK();
}

bool ClusterClient::Healthy() {
  for (const auto& shard : shards_) {
    if (!shard->client->Healthy(kProbeTimeoutMs)) return false;
  }
  return true;
}

bool ClusterClient::ShardHealthy(ShardId shard_id) {
  if (shard_id >= shards_.size()) return false;
  return ProbeAndSettle(*shards_[shard_id]);
}

StatusOr<std::string> ClusterClient::Stats() {
  struct Section {
    ShardId shard;
    std::string text;
    bool up;
  };
  std::vector<Section> sections;
  sections.reserve(shards_.size());
  std::size_t healthy = 0;
  for (const auto& shard : shards_) {
    Section section{shard->address.shard, {}, false};
    // Skip shards in cooldown — a merged scrape must not stall on a dead
    // shard's connect timeout every time.
    const std::int64_t open_until =
        shard->open_until_ms.load(std::memory_order_acquire);
    if (open_until == 0 || SteadyMillis() >= open_until) {
      StatusOr<std::string> text = shard->client->Stats();
      if (text.ok()) {
        section.text = *std::move(text);
        section.up = true;
        ++healthy;
      } else {
        RecordFailure(*shard);
      }
    }
    sections.push_back(std::move(section));
  }
  if (healthy == 0) {
    return Status::Unavailable("no shard answered the merged scrape");
  }

  // Cluster-level aggregation: summed serving/ingest counters and the
  // CTR join re-derived from the summed impressions/clicks, so PR 5's
  // quality signals stay readable as one number across the fleet.
  const char* summed[] = {
      "net_server_requests_total",    "service_requests_total",
      "service_actions_total",        "server_degraded_responses_total",
      "quality_ctr_impressions_total", "quality_ctr_clicks_total",
  };
  std::ostringstream out;
  out << "# rtrec cluster merged scrape\n";
  out << "cluster_shards " << shards_.size() << '\n';
  out << "cluster_shards_healthy " << healthy << '\n';
  for (const Section& section : sections) {
    out << "cluster_shard_up{shard=\"" << section.shard << "\"} "
        << (section.up ? 1 : 0) << '\n';
  }
  double impressions = 0, clicks = 0;
  for (const char* name : summed) {
    double sum = 0;
    for (const Section& section : sections) {
      if (!section.up) continue;
      const double value = ScrapeValue(section.text, name);
      if (value > 0) sum += value;
    }
    out << "cluster_" << name << ' ' << sum << '\n';
    if (std::string_view(name) == "quality_ctr_impressions_total") {
      impressions = sum;
    } else if (std::string_view(name) == "quality_ctr_clicks_total") {
      clicks = sum;
    }
  }
  out << "cluster_quality_ctr_overall "
      << (impressions > 0 ? clicks / impressions : 0.0) << '\n';
  for (const Section& section : sections) {
    const ShardAddress* address = options_.manifest.Find(section.shard);
    out << "# ---- shard " << section.shard << " @ "
        << (address != nullptr ? address->host : "?") << ':'
        << (address != nullptr ? address->port : 0)
        << (section.up ? "" : " (down)") << " ----\n";
    if (section.up) out << section.text;
  }
  return out.str();
}

StatusOr<std::vector<ScoredVideo>> ClusterClient::Recommend(
    const RecRequest& request) {
  StatusOr<RecommendReply> reply = RecommendDetailed(request);
  RTREC_RETURN_IF_ERROR(reply.status());
  return std::move(reply->videos);
}

StatusOr<RecommendReply> ClusterClient::RecommendDetailed(
    const RecRequest& request) {
  const ShardId owner = OwnerOf(request.user);
  RecommendReply reply;
  ShardId served_by = owner;
  Status status = RouteCall(
      request.user,
      [&](RecClient& client) -> Status {
        StatusOr<RecommendReply> result = client.RecommendDetailed(request);
        RTREC_RETURN_IF_ERROR(result.status());
        reply = *std::move(result);
        return Status::OK();
      },
      &served_by);
  RTREC_RETURN_IF_ERROR(status);
  if (served_by != owner) {
    // A failover shard does not hold this user's model slice: whatever it
    // answered (typically its cold-user hot-video fallback) is a degraded
    // answer by construction, so the router says so on the reply.
    reply.flags |= kRecommendFlagDegraded;
    if (router_failovers_ != nullptr) router_failovers_->Increment();
  }
  if (reply.degraded() && router_degraded_ != nullptr) {
    router_degraded_->Increment();
  }
  return reply;
}

Status ClusterClient::Observe(const UserAction& action) {
  const ShardId owner = OwnerOf(action.user);
  ShardId served_by = owner;
  Status status = RouteCall(
      action.user,
      [&](RecClient& client) { return client.Observe(action); }, &served_by);
  if (status.ok() && served_by != owner && router_failovers_ != nullptr) {
    router_failovers_->Increment();
  }
  return status;
}

Status ClusterClient::RegisterProfile(UserId user,
                                      const UserProfile& profile) {
  const ShardId owner = OwnerOf(user);
  ShardId served_by = owner;
  Status status = RouteCall(
      user,
      [&](RecClient& client) { return client.RegisterProfile(user, profile); },
      &served_by);
  if (status.ok() && served_by != owner && router_failovers_ != nullptr) {
    router_failovers_->Increment();
  }
  return status;
}

}  // namespace rtrec
