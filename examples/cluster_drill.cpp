// cluster_drill: the kill -9 drill of a sharded deployment, run by
// scripts/cluster.sh in drill mode (CI with --smoke).
//
//   $ ./cluster_drill [--smoke] [--serve-binary=PATH]
//
// It forks a 1-shard baseline, then a 4-shard cluster of real `serve`
// processes (generated manifest on ephemeral ports, 500 ms checkpoints),
// routes loadgen threads through ClusterClient, kill -9s the shard that
// owns a probe key mid-traffic and restarts it. It prints the scaling
// ratio vs one shard, failover latency (kill to the first answer for a
// key the dead shard owned), the outage error and degraded fractions,
// recovery time (respawn to Ping, restored from its checkpoint slice),
// and one stitched multi-shard trace of the kill: a sampled context
// propagated through the router's failover retry must surface on the
// fallback shard's /traces with hop=1.
//
// Exit 0 only if every gate holds: baseline and steady QPS > 0, a
// DEGRADED failover answer, the stitched hop=1 trace, outage errors
// <= 20%, a measured recovery, zero errors after it, and every shard
// healthy at the end; 1 otherwise (shard log tails on stderr); 2 on
// usage error. --serve-binary defaults to the `serve` beside this
// binary; --smoke shortens each window to 1 s with 2 loadgen threads.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/manifest.h"
#include "common/trace.h"
#include "net/socket.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kNumShards = 4;
static_assert(kNumShards >= 2, "the drill needs a real cluster");
constexpr int kWorkersPerShard = 2;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

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

/// Reserves an ephemeral loopback port by bind(0)/getsockname/close.
/// There is an inherent race (someone could grab the port before serve
/// binds it), but the readiness gate catches the losing case.
int PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  ::close(fd);
  return port;
}

/// Everything a shard child process needs, prebuilt in the parent.
/// fork() happens while loadgen threads run, so the child must not
/// allocate between fork and exec (another thread could hold the malloc
/// lock at fork time) — all strings exist before the fork.
struct ShardSpec {
  std::string binary;
  std::string manifest_flag;
  std::string shard_flag;
  std::string checkpoint_flag;
  std::string stats_flag;
  std::string workers;
  std::string log_path;
};

ShardSpec MakeShardSpec(const std::string& serve_binary,
                        const std::string& manifest_path,
                        const std::string& checkpoint_dir,
                        const std::string& log_prefix, int shard,
                        int stats_port) {
  ShardSpec spec;
  spec.binary = serve_binary;
  spec.manifest_flag = "--cluster-manifest=" + manifest_path;
  spec.shard_flag = "--shard-id=" + std::to_string(shard);
  spec.checkpoint_flag = "--checkpoint-dir=" + checkpoint_dir;
  spec.stats_flag = "--stats-port=" + std::to_string(stats_port);
  spec.workers = std::to_string(kWorkersPerShard);
  spec.log_path = log_prefix + std::to_string(shard) + ".log";
  return spec;
}

pid_t SpawnShard(const ShardSpec& spec) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: per-shard log file, then exec serve. Positional "0" is the
  // port, overridden by the manifest. Head sampling off keeps shards
  // lean; contexts adopted from the wire still record spans, which is
  // what the stitched-trace check scrapes off /traces.
  const int fd =
      ::open(spec.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ::execl(spec.binary.c_str(), spec.binary.c_str(), spec.manifest_flag.c_str(),
          spec.shard_flag.c_str(), spec.checkpoint_flag.c_str(),
          spec.stats_flag.c_str(), "--checkpoint-interval-ms=500",
          "--trace-sample-every-n=0", "0", spec.workers.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(127);  // exec failed; the readiness gate reports it.
}

/// Minimal HTTP/1.0 GET against a shard's stats port: the whole response
/// (headers + body), or what arrived before a failure or a 2 s stall.
std::string HttpGet(int port, const std::string& path) {
  auto conn =
      rtrec::ConnectTcp("127.0.0.1", static_cast<std::uint16_t>(port), 2000);
  if (!conn.ok()) return "";
  // ConnectTcp's socket blocks, so one write sends the whole request or
  // the connection is broken.
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::write(conn->get(), request.data(), request.size()) !=
      static_cast<ssize_t>(request.size())) {
    return "";
  }
  std::string out;
  char buf[8192];
  while (rtrec::WaitReady(conn->get(), /*for_read=*/true, 2000).ok()) {
    const ssize_t n = ::read(conn->get(), buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return out;
}

/// Owns the shard processes: TERMs and reaps whatever is still alive on
/// scope exit, so no drill path leaks serve processes.
struct ProcessGroup {
  std::vector<pid_t> pids;

  ProcessGroup() = default;
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;
  ~ProcessGroup() {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  }
};

/// Removes the drill's scratch directory on scope exit.
struct TempDir {
  std::string path;

  explicit TempDir(std::string dir) : path(std::move(dir)) {}
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

bool AwaitClusterHealthy(rtrec::ClusterClient& client, int deadline_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  while (Clock::now() < deadline) {
    if (client.Healthy()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// Prints the tail of each shard log — the post-mortem when bring-up or
/// the drill fails.
void DumpShardLogs(const std::string& workdir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(workdir, ec)) {
    if (entry.path().extension() != ".log") continue;
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.size() > 2048) text = text.substr(text.size() - 2048);
    std::fprintf(stderr, "---- %s ----\n%s\n",
                 entry.path().filename().c_str(), text.c_str());
  }
}

/// Per-window loadgen tallies (steady / outage / post-recovery).
struct ClusterWindow {
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> errors{0};
  std::atomic<std::int64_t> degraded{0};

  std::int64_t total() const { return ok.load() + errors.load(); }
  double ErrorFraction() const {
    const std::int64_t n = total();
    return n > 0 ? static_cast<double>(errors.load()) / n : 0.0;
  }
  double DegradedFraction() const {
    const std::int64_t n = total();
    return n > 0 ? static_cast<double>(degraded.load()) / n : 0.0;
  }
};

enum ClusterPhase { kSteady = 0, kOutage = 1, kPost = 2 };

/// Default routing policy over `manifest`.
rtrec::ClusterClient::Options RouterOptions(
    const rtrec::ClusterManifest& manifest) {
  rtrec::ClusterClient::Options options;
  options.manifest = manifest;
  return options;
}

/// One loadgen thread: its own ClusterClient (per the thread-safety
/// guidance), read-dominated mix over 64 users so every shard owns
/// traffic, tallies into whichever window is current.
void ClusterLoadgenThread(const rtrec::ClusterManifest& manifest,
                          int thread_index, const std::atomic<int>& phase,
                          const std::atomic<bool>& stop,
                          ClusterWindow* windows) {
  rtrec::ClusterClient client(RouterOptions(manifest));
  rtrec::RecRequest request;
  request.top_n = 10;
  rtrec::Timestamp t = 5'000'000 + thread_index;
  int seq = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    ClusterWindow& window = windows[phase.load(std::memory_order_relaxed)];
    const rtrec::UserId user = 1 + (seq * 7 + thread_index) % 64;
    if (seq % 8 == 7) {
      const rtrec::Status status =
          client.Observe(Watch(user, 10 + seq % 5, t += 1000));
      (status.ok() ? window.ok : window.errors)
          .fetch_add(1, std::memory_order_relaxed);
    } else {
      request.user = user;
      request.seed_videos = {10 + static_cast<rtrec::VideoId>(seq % 5)};
      request.now = t;
      auto reply = client.RecommendDetailed(request);
      if (reply.ok()) {
        window.ok.fetch_add(1, std::memory_order_relaxed);
        if (reply->degraded()) {
          window.degraded.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        window.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++seq;
  }
}

/// Steady-state loadgen against `manifest` for `seconds`; returns QPS.
double MeasureClusterQps(const rtrec::ClusterManifest& manifest, int threads,
                         int seconds) {
  std::atomic<int> phase{kSteady};
  std::atomic<bool> stop{false};
  ClusterWindow windows[3];
  std::vector<std::thread> loadgen;
  loadgen.reserve(threads);
  const auto t0 = Clock::now();
  for (int i = 0; i < threads; ++i) {
    loadgen.emplace_back(
        [&, i] { ClusterLoadgenThread(manifest, i, phase, stop, windows); });
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true);
  for (auto& thread : loadgen) thread.join();
  const double elapsed = Seconds(t0, Clock::now());
  return elapsed > 0 ? windows[kSteady].total() / elapsed : 0.0;
}

/// Writes a loopback manifest over freshly reserved ephemeral ports to
/// `path` and loads it back.
bool WriteManifest(int num_shards, const std::string& path,
                   rtrec::ClusterManifest* manifest) {
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# rtrec drill cluster manifest\n";
    for (int shard = 0; shard < num_shards; ++shard) {
      const int port = PickFreePort();
      if (port <= 0) {
        std::fprintf(stderr, "cluster: no free port for shard %d\n", shard);
        return false;
      }
      out << "shard " << shard << " 127.0.0.1 " << port << "\n";
    }
  }
  auto loaded = rtrec::ClusterManifest::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cluster: manifest %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return false;
  }
  *manifest = *std::move(loaded);
  return true;
}

bool RunDrill(const std::string& serve_binary, bool smoke) {
  const int threads = smoke ? 2 : 4;  // Loadgen threads, one router each.
  const int window_seconds = smoke ? 1 : 3;

  char workdir_template[] = "rtrec-cluster-XXXXXX";
  if (::mkdtemp(workdir_template) == nullptr) {
    std::perror("cluster: mkdtemp");
    return false;
  }
  TempDir workdir{workdir_template};

  // 1-process baseline for the scaling ratio: same binary, same loadgen,
  // a manifest of one.
  double baseline_qps = 0.0;
  {
    rtrec::ClusterManifest manifest;
    const std::string manifest_path = workdir.path + "/manifest-baseline.txt";
    if (!WriteManifest(1, manifest_path, &manifest)) return false;
    ProcessGroup procs;
    procs.pids.push_back(SpawnShard(MakeShardSpec(
        serve_binary, manifest_path, workdir.path + "/baseline-checkpoints",
        workdir.path + "/baseline-shard-", 0, PickFreePort())));
    rtrec::ClusterClient ready(RouterOptions(manifest));
    if (!AwaitClusterHealthy(ready, 15'000)) {
      std::fprintf(stderr, "cluster: baseline shard never became healthy\n");
      DumpShardLogs(workdir.path);
      return false;
    }
    baseline_qps = MeasureClusterQps(manifest, threads, window_seconds);
  }  // ProcessGroup TERMs + reaps the baseline shard here.

  // The real cluster.
  rtrec::ClusterManifest manifest;
  const std::string manifest_path = workdir.path + "/manifest.txt";
  if (!WriteManifest(kNumShards, manifest_path, &manifest)) return false;
  std::vector<ShardSpec> specs;
  std::vector<int> stats_ports;
  ProcessGroup procs;
  for (int shard = 0; shard < kNumShards; ++shard) {
    stats_ports.push_back(PickFreePort());
    specs.push_back(MakeShardSpec(serve_binary, manifest_path,
                                  workdir.path + "/checkpoints",
                                  workdir.path + "/shard-", shard,
                                  stats_ports.back()));
    procs.pids.push_back(SpawnShard(specs.back()));
  }

  rtrec::ClusterClient control(RouterOptions(manifest));
  if (!AwaitClusterHealthy(control, 15'000)) {
    std::fprintf(stderr, "cluster: %d-shard cluster never became healthy\n",
                 kNumShards);
    DumpShardLogs(workdir.path);
    return false;
  }

  std::atomic<int> phase{kSteady};
  std::atomic<bool> stop{false};
  ClusterWindow windows[3];
  std::vector<std::thread> loadgen;
  loadgen.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    loadgen.emplace_back(
        [&, i] { ClusterLoadgenThread(manifest, i, phase, stop, windows); });
  }

  // Steady window.
  const auto steady_t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(window_seconds));
  const double steady_elapsed = Seconds(steady_t0, Clock::now());

  // kill -9 the shard owning the probe key, mid-traffic.
  const rtrec::UserId probe_user = 7;
  const rtrec::ShardId victim = control.OwnerOf(probe_user);
  phase.store(kOutage);
  ::kill(procs.pids[victim], SIGKILL);
  ::waitpid(procs.pids[victim], nullptr, 0);

  // Failover latency: a fresh router (closed breakers, no warm
  // connections — the worst case) asking for a key the dead shard owned,
  // timed to the first successful answer.
  double failover_ms = -1.0;
  bool failover_degraded = false;
  {
    rtrec::ClusterClient probe(RouterOptions(manifest));
    rtrec::RecRequest request;
    request.user = probe_user;
    request.top_n = 10;
    request.now = 1;
    const auto k0 = Clock::now();
    const auto deadline = k0 + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      auto reply = probe.RecommendDetailed(request);
      if (reply.ok()) {
        failover_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - k0)
                .count();
        failover_degraded = reply->degraded();
        break;
      }
    }
  }

  // One stitched multi-shard trace of the kill: the same dead-owner key
  // asked for under a sampled context. The router re-stamps the context
  // with the hop number on each failover attempt, the fallback shard
  // adopts it off the wire, and its /traces must then show the span
  // tree under our trace id, with hop=1 on /traces/slow. The shard
  // processes head-sample nothing (--trace-sample-every-n=0), so this
  // is the only trace the cluster records — pure wire propagation.
  const std::uint64_t drill_trace_id = 0xD157CA11ull;
  bool stitched_trace_found = false;
  bool stitched_hop_found = false;
  {
    rtrec::ClusterClient drill(RouterOptions(manifest));
    rtrec::TraceContext trace;
    trace.id = drill_trace_id;
    trace.start_us = rtrec::Tracer::NowMicros();
    rtrec::ScopedTraceContext scope(trace);
    rtrec::RecRequest request;
    request.user = probe_user;
    request.top_n = 10;
    request.now = 2;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      if (drill.RecommendDetailed(request).ok()) break;
    }
  }
  char drill_hex[17];
  std::snprintf(drill_hex, sizeof(drill_hex), "%016llx",
                static_cast<unsigned long long>(drill_trace_id));
  for (int shard = 0; shard < kNumShards; ++shard) {
    if (shard == static_cast<int>(victim)) continue;
    const std::string traces = HttpGet(stats_ports[shard], "/traces");
    if (traces.find(drill_hex) == std::string::npos) continue;
    stitched_trace_found = true;
    const std::string slow = HttpGet(stats_ports[shard], "/traces/slow");
    if (slow.find(drill_hex) != std::string::npos &&
        slow.find("\"hop\":1") != std::string::npos) {
      stitched_hop_found = true;
    }
  }
  std::this_thread::sleep_for(std::chrono::seconds(window_seconds));

  // Restart the victim; recovery = respawn to answering Ping (it
  // restores its checkpointed slice on boot).
  const auto respawn_t0 = Clock::now();
  procs.pids[victim] = SpawnShard(specs[victim]);
  double recovery_ms = -1.0;
  const auto recovery_deadline = respawn_t0 + std::chrono::seconds(20);
  while (Clock::now() < recovery_deadline) {
    if (control.ShardHealthy(victim)) {
      recovery_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              respawn_t0)
                        .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Post-recovery window: the cluster is whole again — zero errors
  // expected (degraded responses decay as the loadgen breakers close).
  phase.store(kPost);
  std::this_thread::sleep_for(std::chrono::seconds(window_seconds));
  stop.store(true);
  for (auto& thread : loadgen) thread.join();

  const bool whole_at_end = control.Healthy();
  const double steady_qps =
      steady_elapsed > 0 ? windows[kSteady].total() / steady_elapsed : 0.0;

  std::printf(
      "cluster  %d shards %.0f QPS (1 shard %.0f, x%.2f); kill -9 shard %u: "
      "failover %.1fms%s, outage errors %.2f%% degraded %.1f%%, recovery "
      "%.0fms, post errors %lld, %s at end\n",
      kNumShards, steady_qps, baseline_qps,
      baseline_qps > 0 ? steady_qps / baseline_qps : 0.0, victim, failover_ms,
      failover_degraded ? " (DEGRADED)" : "",
      windows[kOutage].ErrorFraction() * 100,
      windows[kOutage].DegradedFraction() * 100, recovery_ms,
      static_cast<long long>(windows[kPost].errors.load()),
      whole_at_end ? "every shard healthy" : "NOT every shard healthy");
  std::printf("cluster  stitched trace %s: %s on fallback /traces, hop=1 %s\n",
              drill_hex, stitched_trace_found ? "found" : "MISSING",
              stitched_hop_found ? "recorded" : "MISSING");

  // The drill's contract: the kill is survivable (bounded errors, the
  // failover answer arrives and is DEGRADED, its trace stitches across
  // shards), the restart heals (recovery measured, post window
  // error-free, every shard healthy).
  bool ok = true;
  auto gate = [&ok](bool pass, const char* failure) {
    if (!pass) std::fprintf(stderr, "cluster: %s\n", failure);
    ok = ok && pass;
  };
  gate(baseline_qps > 0, "no 1-process baseline throughput");
  gate(steady_qps > 0, "no steady throughput");
  gate(failover_ms >= 0 && failover_degraded,
       "failover answer missing or not DEGRADED");
  gate(stitched_trace_found && stitched_hop_found,
       "no stitched multi-shard trace: the propagated context did not "
       "surface on a fallback shard's /traces with hop=1");
  gate(windows[kOutage].ErrorFraction() <= 0.2,
       "outage error fraction above 20%");
  gate(recovery_ms >= 0, "victim never recovered");
  gate(windows[kPost].errors.load() == 0, "errors after recovery");
  gate(whole_at_end, "cluster not whole at end of drill");
  if (!ok) DumpShardLogs(workdir.path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string serve_binary =
      (std::filesystem::path(argv[0]).parent_path() / "serve").string();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--serve-binary=", 15) == 0) {
      serve_binary = argv[i] + 15;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--serve-binary=PATH]\n", argv[0]);
      return 2;
    }
  }
  if (::access(serve_binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "cluster_drill: %s is not executable\n",
                 serve_binary.c_str());
    return 2;
  }
  return RunDrill(serve_binary, smoke) ? 0 : 1;
}
