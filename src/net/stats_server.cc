#include "net/stats_server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/span_collector.h"

namespace rtrec {

StatsServer::StatsServer(MetricsRegistry* registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  scrapes_ = registry_->GetCounter("stats.scrapes");
}

StatsServer::~StatsServer() { Stop(); }

Status StatsServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("stats server already running");
  }
  stopping_.store(false, std::memory_order_release);
  auto listener = ListenTcp(options_.host, options_.port, /*backlog=*/16);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(*listener);
  auto port = LocalPort(listen_fd_.get());
  if (!port.ok()) return port.status();
  port_ = *port;
  thread_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  RTREC_LOG(kInfo) << "StatsServer listening on " << options_.host << ":"
                   << port_;
  return Status::OK();
}

void StatsServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  listen_fd_.Reset();
  port_ = 0;
}

void StatsServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Status ready = WaitReady(listen_fd_.get(), /*for_read=*/true,
                             /*timeout_ms=*/250);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!ready.ok()) {
      if (ready.IsUnavailable()) continue;  // Poll timeout: re-check stop.
      RTREC_LOG(kError) << "stats acceptor poll failed: " << ready.ToString();
      break;
    }
    int fd = accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      RTREC_LOG(kWarn) << "stats accept4: " << strerror(errno);
      continue;
    }
    ServeOne(fd);
    ::close(fd);
  }
}

namespace {

/// Per-connection read/write poll timeout.
constexpr int kIoTimeoutMs = 2'000;

/// Path of the request line ("GET /quality HTTP/1.1" → "/quality"), or
/// "/" when the first chunk does not parse as one.
std::string RequestPath(const char* buf, std::size_t len) {
  const std::string_view request(buf, len);
  const std::size_t sp = request.find(' ');
  if (sp == std::string_view::npos) return "/";
  const std::size_t start = sp + 1;
  const std::size_t end = request.find_first_of(" \r\n", start);
  if (end == std::string_view::npos || end == start) return "/";
  return std::string(request.substr(start, end - start));
}

/// Keeps only the metrics of the `quality.` namespace: every exposition
/// line (including its # TYPE header) whose metric name starts with
/// "quality_" after Prometheus name sanitization.
std::string FilterQualitySection(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + pos, eol - pos + 1);
    const bool comment = line.rfind("# TYPE ", 0) == 0;
    const std::string_view name =
        comment ? line.substr(7) : line;
    if (name.rfind("quality_", 0) == 0) out.append(line);
    pos = eol + 1;
  }
  return out;
}

}  // namespace

void StatsServer::ServeOne(int fd) {
  // Read whatever arrives in the first chunk and parse just the request
  // path out of it; route by path (see class comment). A collector that
  // pipelines or sends a huge request still gets a scrape.
  char buf[4096];
  ssize_t got = 0;
  if (WaitReady(fd, /*for_read=*/true, kIoTimeoutMs).ok()) {
    got = read(fd, buf, sizeof(buf));
  }
  std::string path =
      got > 0 ? RequestPath(buf, static_cast<std::size_t>(got)) : "/";
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  scrapes_->Increment();

  const char* status_line = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (path == "/" || path == "/metrics") {
    MetricsRegistry::ExportOptions export_options;
    export_options.native_histograms = options_.native_histograms;
    body = registry_->PrometheusText(export_options);
  } else if (path == "/quality") {
    body = FilterQualitySection(registry_->PrometheusText());
  } else if (path == "/healthz") {
    content_type = "text/plain; charset=utf-8";
    body = StringPrintf("ok shard=%d\n", options_.shard_id);
  } else if (path == "/traces" && options_.spans != nullptr) {
    content_type = "application/json";
    options_.spans->Flush();
    body = options_.spans->ExportChromeJson();
  } else if (path == "/traces/slow" && options_.spans != nullptr) {
    content_type = "application/json";
    options_.spans->Flush();
    body = options_.spans->ExportSlowJson();
  } else {
    status_line = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found\n";
  }
  std::string response =
      StringPrintf("HTTP/1.0 %s\r\n"
                   "Content-Type: %s\r\n"
                   "Content-Length: %zu\r\n"
                   "Connection: close\r\n"
                   "\r\n",
                   status_line, content_type, body.size());
  response += body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    if (!WaitReady(fd, /*for_read=*/false, kIoTimeoutMs).ok()) {
      return;  // Slow or dead collector; drop the scrape.
    }
    ssize_t n = write(fd, response.data() + sent, response.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace rtrec
