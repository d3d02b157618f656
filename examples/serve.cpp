// Serve: stand up the full recommendation stack behind a TCP socket —
// the production shape of the paper's system. An epoll RecServer fronts
// a RecommendationService; clients speak the binary wire protocol
// (src/net/wire.h) via RecClient.
//
//   $ ./serve [port] [workers] [--checkpoint-dir=DIR]
//             [--checkpoint-interval-ms=N] [--deadline-ms=N]
//             [--stats-port=N] [--trace-sample-every-n=N]
//             [--trace-slow-us=N] [--trace-dump=FILE]
//             [--native-histograms]
//             [--quality-holdout-every-n=N] [--quality-arms=N]
//             [--host=ADDR] [--cluster-manifest=FILE] [--shard-id=I]
//             [--num-shards=N]
//
// Defaults: port 7471, 4 workers, no checkpointing, no deadline, no
// stats endpoint, trace sampling 1-in-64, quality holdout 1-in-100,
// 2 A/B arms, standalone (unsharded).
//
// Sharded deployment: with --cluster-manifest and --shard-id this
// process is one shard of a multi-process cluster (docs/OPERATIONS.md,
// "Running a cluster"). The manifest supplies this shard's host:port
// (the positional port is ignored) and the shard count; routing clients
// (cluster/ClusterClient) send each user key to its owning shard via
// the shared consistent-hash ring, so this process only ever trains its
// own key slice. --shard-id/--num-shards without a manifest set up the
// same slice-awareness for hand-wired deployments. Sharded processes:
//  - checkpoint into <checkpoint-dir>/shard-<id>, so a restarted shard
//    restores exactly its slice and rejoins (shard handoff);
//  - warm up only the users they own (per-key single-writer holds from
//    the first action);
//  - export cluster.shard_id / cluster.num_shards gauges so scrapes
//    identify the shard.
//
// With --stats-port the server also exposes its metrics registry over
// plain HTTP in Prometheus text format (curl http://127.0.0.1:N/metrics
// or point a scraper at it; /quality narrows the scrape to the
// model-quality section); the same text is always available in-band
// via the wire protocol's Stats RPC (RecClient::Stats). Request tracing
// is on by default: 1 in --trace-sample-every-n requests records
// per-stage latencies under "trace.*" (0 disables tracing).
// --native-histograms adds cumulative Prometheus histogram families to
// the HTTP scrape.
//
// Distributed tracing (docs/OPERATIONS.md, "Reading a distributed
// trace"): sampled requests — and, when an upstream router propagated a
// sampled context over the wire, adopted ones — record per-stage spans
// into an in-process collector. Finished traces are served as Chrome
// trace-event JSON at /traces on the stats port (load in Perfetto) and
// the slowest requests with per-stage breakdowns at /traces/slow.
// --trace-slow-us=N retroactively keeps any request slower than N µs
// even when it was not sampled (tail capture). --trace-dump=FILE writes
// the trace-event JSON to FILE on shutdown.
//
// Model-quality monitoring is always on (the service has a metrics
// registry): progressive-validation logloss, online recall@N over a
// deterministic 1-in---quality-holdout-every-n held-out slice (0
// disables the holdout), live CTR joined from served impressions
// segmented over --quality-arms A/B arms, and the drift watchdog — all
// under "quality.*". See docs/OPERATIONS.md, "Reading model quality".
//
// With --checkpoint-dir the server restores the model from the last
// snapshot on boot (fresh warm-up if none exists) and a background
// Checkpointer keeps snapshotting on an interval — so a kill -9 loses
// at most one interval of model updates. See examples/README.md for the
// kill-and-restart walkthrough.
//
// The server warms itself with a little synthetic traffic so the first
// client request already gets non-empty pages, then runs until SIGINT /
// SIGTERM, printing the metrics report on shutdown. Poke it from
// another terminal:
//
//   $ ./serve 7471 &
//   $ ./rec_ping 7471               # liveness — or use
//     RecClient{{.host="127.0.0.1", .port=7471}} from your own code.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/manifest.h"
#include "common/trace.h"
#include "obs/span_collector.h"
#include "net/rec_server.h"
#include "net/stats_server.h"
#include "service/checkpointer.h"
#include "service/recommendation_service.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

rtrec::UserAction Watch(rtrec::UserId user, rtrec::VideoId video,
                        rtrec::Timestamp t) {
  rtrec::UserAction action;
  action.user = user;
  action.video = video;
  action.type = rtrec::ActionType::kPlayTime;
  action.view_fraction = 1.0;
  action.time = t;
  return action;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7471;
  std::string host = "127.0.0.1";
  int workers = 4;
  std::string checkpoint_dir;
  int checkpoint_interval_ms = 30'000;
  int deadline_ms = 0;
  int stats_port = -1;  // -1 = no HTTP stats endpoint.
  int trace_sample_every_n = 64;
  long trace_slow_us = 0;    // 0 = no tail capture.
  std::string trace_dump;    // Empty = no shutdown dump.
  bool native_histograms = false;
  int quality_holdout_every_n = 100;
  int quality_arms = 2;
  std::string manifest_path;
  int shard_id = -1;    // -1 = standalone.
  int num_shards = 0;   // 0 = derive (manifest size, or 1).

  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--checkpoint-dir", &value)) {
      checkpoint_dir = value;
    } else if (ParseFlag(argv[i], "--checkpoint-interval-ms", &value)) {
      checkpoint_interval_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--deadline-ms", &value)) {
      deadline_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--stats-port", &value)) {
      stats_port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--trace-sample-every-n", &value)) {
      trace_sample_every_n = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--trace-slow-us", &value)) {
      trace_slow_us = std::atol(value.c_str());
    } else if (ParseFlag(argv[i], "--trace-dump", &value)) {
      trace_dump = value;
    } else if (std::strcmp(argv[i], "--native-histograms") == 0) {
      native_histograms = true;
    } else if (ParseFlag(argv[i], "--quality-holdout-every-n", &value)) {
      quality_holdout_every_n = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--quality-arms", &value)) {
      quality_arms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--host", &value)) {
      host = value;
    } else if (ParseFlag(argv[i], "--cluster-manifest", &value)) {
      manifest_path = value;
    } else if (ParseFlag(argv[i], "--shard-id", &value)) {
      shard_id = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--num-shards", &value)) {
      num_shards = std::atoi(value.c_str());
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) {
    port = static_cast<std::uint16_t>(std::atoi(positional[0]));
  }
  if (positional.size() > 1) workers = std::atoi(positional[1]);

  // Sharded mode: the manifest is authoritative for this shard's
  // address and the cluster size — every process must derive the same
  // ring as the routers.
  if (!manifest_path.empty()) {
    if (shard_id < 0) {
      std::fprintf(stderr, "--cluster-manifest requires --shard-id\n");
      return 1;
    }
    auto manifest = rtrec::ClusterManifest::Load(manifest_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "cluster manifest: %s\n",
                   manifest.status().ToString().c_str());
      return 1;
    }
    const rtrec::ShardAddress* self =
        manifest->Find(static_cast<rtrec::ShardId>(shard_id));
    if (self == nullptr) {
      std::fprintf(stderr, "shard %d not in manifest %s\n", shard_id,
                   manifest_path.c_str());
      return 1;
    }
    host = self->host;
    port = self->port;
    num_shards = static_cast<int>(manifest->num_shards());
  }
  if (shard_id >= 0 && num_shards <= 0) num_shards = shard_id + 1;
  if (shard_id >= num_shards && shard_id >= 0) {
    std::fprintf(stderr, "--shard-id=%d out of range (num shards %d)\n",
                 shard_id, num_shards);
    return 1;
  }
  const bool sharded = shard_id >= 0;
  rtrec::HashRing ring(sharded ? static_cast<std::size_t>(num_shards) : 1);
  if (sharded && !checkpoint_dir.empty()) {
    // Per-shard snapshot directory: a restarted shard restores exactly
    // its own slice, and shards never clobber each other's manifests.
    checkpoint_dir += "/shard-" + std::to_string(shard_id);
  }

  // Videos 1-99 are "drama", 100+ are "sports" — same toy type system
  // as the quickstart.
  rtrec::RecommendationService::Options service_options;
  service_options.metrics = &rtrec::MetricsRegistry::Default();
  service_options.quality.holdout_every_n =
      quality_holdout_every_n < 0
          ? 0u
          : static_cast<std::size_t>(quality_holdout_every_n);
  service_options.quality.num_arms =
      quality_arms < 1 ? 1u : static_cast<std::size_t>(quality_arms);
  rtrec::RecommendationService service(
      [](rtrec::VideoId v) -> rtrec::VideoType { return v < 100 ? 0 : 1; },
      service_options);

  bool restored = false;
  if (!checkpoint_dir.empty()) {
    rtrec::Status loaded = service.Restore(checkpoint_dir);
    if (loaded.ok()) {
      std::printf("restored model from %s\n", checkpoint_dir.c_str());
      restored = true;
    } else if (loaded.IsNotFound()) {
      std::printf("no checkpoint in %s yet, starting fresh\n",
                  checkpoint_dir.c_str());
    } else {
      std::fprintf(stderr, "checkpoint restore failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }

  // Warm the model: a few users co-watching makes the similar-video
  // tables and hot lists non-empty from the first request. A restored
  // model is already warm, but the hot lists are rebuilt from traffic,
  // so replay the warm-up either way — it's idempotent enough. Sharded
  // processes warm only the users they own: every key has exactly one
  // writer from the first action, the same invariant the router keeps
  // for live traffic.
  rtrec::Timestamp t = 0;
  for (int round = 0; round < 10; ++round) {
    for (rtrec::UserId user = 1; user <= 8; ++user) {
      if (sharded) {
        auto owner = ring.OwnerOfUser(user);
        if (!owner.ok() ||
            *owner != static_cast<rtrec::ShardId>(shard_id)) {
          continue;
        }
      }
      service.Observe(Watch(user, 10 + user % 3, t += 1000));
      service.Observe(Watch(user, 11 + user % 3, t += 1000));
    }
  }

  rtrec::Checkpointer::Options checkpointer_options;
  checkpointer_options.directory = checkpoint_dir;
  checkpointer_options.interval_ms = checkpoint_interval_ms;
  checkpointer_options.metrics = &rtrec::MetricsRegistry::Default();
  rtrec::Checkpointer checkpointer(&service, checkpointer_options);
  if (!checkpoint_dir.empty()) {
    rtrec::Status started = checkpointer.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "checkpointer failed to start: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("checkpointing to %s every %dms%s\n", checkpoint_dir.c_str(),
                checkpoint_interval_ms, restored ? " (restored)" : "");
  }

  rtrec::Tracer::Options tracer_options;
  tracer_options.sample_every_n =
      trace_sample_every_n < 0 ? 0u
                               : static_cast<std::uint32_t>(
                                     trace_sample_every_n);
  tracer_options.metrics = &rtrec::MetricsRegistry::Default();
  rtrec::Tracer tracer(tracer_options);

  // Span collector: sampled (and adopted, and tail-captured) requests
  // record per-stage spans here; /traces on the stats port and
  // --trace-dump export them as Chrome trace-event JSON.
  rtrec::obs::SpanCollector::Options span_options;
  span_options.shard_id = shard_id >= 0 ? shard_id : 0;
  span_options.metrics = &rtrec::MetricsRegistry::Default();
  rtrec::obs::SpanCollector spans(span_options);

  rtrec::RecServer::Options options;
  options.host = host;
  options.port = port;
  options.num_workers = workers;
  options.metrics = &rtrec::MetricsRegistry::Default();
  options.recommend_deadline_ms = deadline_ms;
  options.tracer = &tracer;
  options.spans = &spans;
  options.trace_slow_us = trace_slow_us;
  rtrec::RecServer server(&service, options);
  rtrec::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (sharded) {
    // Scrapes must identify the shard — the merged cluster scrape and
    // the per-shard dashboards key on these.
    rtrec::MetricsRegistry::Default().GetGauge("cluster.shard_id")
        ->Set(shard_id);
    rtrec::MetricsRegistry::Default().GetGauge("cluster.num_shards")
        ->Set(num_shards);
    std::printf("serving shard %d/%d on %s:%u with %d workers "
                "(Ctrl-C to stop)\n",
                shard_id, num_shards, host.c_str(), server.port(), workers);
  } else {
    std::printf("serving on %s:%u with %d workers (Ctrl-C to stop)\n",
                host.c_str(), server.port(), workers);
  }

  rtrec::StatsServer::Options stats_options;
  stats_options.port = static_cast<std::uint16_t>(stats_port);
  stats_options.shard_id = shard_id >= 0 ? shard_id : 0;
  stats_options.spans = &spans;
  stats_options.native_histograms = native_histograms;
  rtrec::StatsServer stats_server(&rtrec::MetricsRegistry::Default(),
                                  stats_options);
  if (stats_port >= 0) {
    rtrec::Status stats_started = stats_server.Start();
    if (!stats_started.ok()) {
      std::fprintf(stderr, "stats endpoint failed to start: %s\n",
                   stats_started.ToString().c_str());
      return 1;
    }
    std::printf("stats (Prometheus text) on http://127.0.0.1:%u/metrics\n",
                stats_server.port());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  stats_server.Stop();
  server.Stop();
  checkpointer.Stop();  // Takes a final snapshot when checkpointing is on.
  if (!trace_dump.empty()) {
    spans.Flush();
    const std::string json = spans.ExportChromeJson();
    if (FILE* f = std::fopen(trace_dump.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("trace dump (%zu bytes) written to %s\n", json.size(),
                  trace_dump.c_str());
    } else {
      std::fprintf(stderr, "trace dump: cannot open %s\n", trace_dump.c_str());
    }
  }
  std::printf("\n%s\n", rtrec::MetricsRegistry::Default().Report().c_str());
  return 0;
}
