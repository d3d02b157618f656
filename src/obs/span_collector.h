#ifndef RTREC_OBS_SPAN_COLLECTOR_H_
#define RTREC_OBS_SPAN_COLLECTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "concurrent/spsc_ring.h"

namespace rtrec {
namespace obs {

/// Structured span recording behind the PR 3 tracing layer.
///
/// The sampling/propagation machinery in common/trace.h decides *which*
/// requests are traced; this subsystem records *what happened inside*
/// them. Request handlers stage fixed-size SpanRecords in a small
/// per-request buffer (RequestRecorder), and on commit push them onto a
/// per-thread SPSC ring. A background drain thread owned by the
/// SpanCollector pops the rings, assembles per-trace span trees, and
/// keeps two bounded views: the most recent finished traces (exported
/// as Chrome trace-event JSON, loadable in Perfetto, at /traces and via
/// serve --trace-dump), and the slowest-N requests with per-stage
/// breakdown (/traces/slow).
///
/// Tail-latency capture: the recorder stages spans for *every* request
/// when a slow threshold is armed — staging is append-to-a-small-vector
/// cheap — and at request end either commits (trace sampled, or e2e
/// latency over the threshold) or discards the buffer. That is how a
/// p99 outlier that the 1-in-N head sampler missed still ends up
/// inspectable.

/// One recorded span. Fixed-size POD so ring hand-off is a memcpy.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;    ///< Unique within (process, trace).
  std::uint32_t parent_id = 0;  ///< 0 = root span of this process's tree.
  std::int64_t start_us = 0;    ///< Steady clock, Tracer::NowMicros.
  std::int64_t end_us = 0;
  std::uint16_t name_id = 0;    ///< Interned via SpanCollector::InternName.
  std::uint16_t thread_id = 0;  ///< Stamped by SpanCollector::Record.
  std::int32_t shard_id = 0;
  std::uint8_t hop = 0;  ///< Failover hop the request arrived on.
  std::uint8_t flags = 0;
};

/// The request's root span; its duration is the e2e latency.
inline constexpr std::uint8_t kSpanFlagRoot = 0x01;
/// Committed by tail capture (e2e over threshold), not head sampling.
inline constexpr std::uint8_t kSpanFlagSlowCapture = 0x02;
/// The trace context was adopted from the wire, not minted here.
inline constexpr std::uint8_t kSpanFlagAdopted = 0x04;

class SpanCollector {
 public:
  /// Finished traces retained for /traces, oldest evicted first.
  static constexpr std::size_t kMaxTraces = 256;
  /// Slowest-N finished traces retained for /traces/slow.
  static constexpr std::size_t kSlowKeep = 32;
  /// Period of the background drain of the per-thread rings.
  static constexpr int kDrainIntervalMs = 5;

  struct Options {
    /// Stamped into every span (pid in the Chrome export) so traces
    /// stitched across a cluster attribute spans to shards.
    int shard_id = 0;
    MetricsRegistry* metrics = nullptr;  ///< Null = MetricsRegistry::Default().
  };

  explicit SpanCollector(const Options& options);
  ~SpanCollector();

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Interns a span name, returning a stable small id. Call at setup
  /// and cache the id — interning takes a lock.
  std::uint16_t InternName(std::string_view name);

  /// The interned name for `id` ("?" if unknown).
  std::string NameFor(std::uint16_t id) const;

  /// Pushes one finished span onto the calling thread's ring (lazily
  /// registered on first use). Stamps thread_id; everything else is the
  /// caller's. Never blocks; drops (and counts) when the ring is full.
  void Record(SpanRecord record);

  /// Mints a globally-unique trace id for a tail-captured request whose
  /// context was not head-sampled (and so has no id yet).
  std::uint64_t MintTraceId();

  /// Drains all rings synchronously (the drain thread also runs this on
  /// its timer). Call before exporting when determinism matters — tests
  /// and the --trace-dump shutdown path.
  void Flush();

  /// All retained finished traces as Chrome trace-event JSON
  /// ({"traceEvents":[...]}; "X" complete events, ts/dur in µs,
  /// pid=shard, tid=recording thread). Loadable in Perfetto as-is.
  std::string ExportChromeJson() const;

  /// The slowest-N retained requests, slowest first, as JSON with a
  /// per-stage breakdown: trace id, total µs, hop, and one entry per
  /// child span.
  std::string ExportSlowJson() const;

  /// Whether a finished trace with this id is retained (drill/tests).
  bool HasTrace(std::uint64_t trace_id) const;

  struct Stats {
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
    std::uint64_t traces_finished = 0;
    std::uint64_t traces_dropped = 0;
    std::uint64_t slow_captured = 0;
  };
  Stats GetStats() const;

  int shard_id() const { return options_.shard_id; }

 private:
  struct RingSlot {
    explicit RingSlot(std::size_t capacity, std::uint16_t id)
        : ring(capacity), thread_id(id) {}
    concurrent::SpscRing<SpanRecord> ring;
    std::uint16_t thread_id;
  };

  /// One assembled request tree, kept for export.
  struct FinishedTrace {
    std::uint64_t trace_id = 0;
    std::int64_t total_us = 0;
    std::uint8_t hop = 0;
    std::uint8_t root_flags = 0;
    std::vector<SpanRecord> spans;  ///< Root first, then by start time.
  };

  RingSlot* SlotForThisThread();
  void DrainLoop();
  void DrainOnce();
  void FinalizeTrace(std::uint64_t trace_id, std::vector<SpanRecord> spans);

  const Options options_;
  MetricsRegistry* metrics_;
  /// Process-unique birth id; keys the per-thread ring cache so a
  /// collector reusing a destroyed one's address cannot hit its entries.
  const std::uint64_t instance_id_;

  mutable std::mutex names_mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> name_ids_;

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<RingSlot>> rings_;

  /// Serializes ring consumption (timer drain vs Flush) and guards the
  /// pending-assembly map.
  mutable std::mutex drain_mu_;
  struct PendingTrace {
    std::vector<SpanRecord> spans;
    std::uint64_t drain_generation = 0;
  };
  std::unordered_map<std::uint64_t, PendingTrace> pending_;
  std::uint64_t drain_generation_ = 0;

  /// Guards the export views (drain commits, HTTP scrapes read).
  mutable std::mutex export_mu_;
  std::deque<FinishedTrace> finished_;
  std::vector<FinishedTrace> slow_;  ///< Sorted by total_us descending.

  std::atomic<std::uint64_t> spans_recorded_{0};
  std::atomic<std::uint64_t> spans_dropped_{0};
  std::atomic<std::uint64_t> traces_finished_{0};
  std::atomic<std::uint64_t> traces_dropped_{0};
  std::atomic<std::uint64_t> slow_captured_{0};
  std::atomic<std::uint64_t> trace_id_seq_{0};
  std::uint64_t trace_id_seed_;

  Counter* spans_recorded_counter_;
  Counter* spans_dropped_counter_;
  Counter* traces_finished_counter_;
  Counter* slow_captured_counter_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread drain_thread_;
};

/// Per-request span staging. Stack-allocated in the request handler;
/// stages spans into a small local buffer and, at Finish, either pushes
/// them all to the collector or throws them away (tail capture's
/// "reversible buffer"). Inactive (every call a cheap no-op) when the
/// collector is null, or when the trace is unsampled and no slow
/// threshold is armed.
class RequestRecorder {
 public:
  /// `root_flags` is OR'd into the root span (kSpanFlagAdopted etc.).
  /// `slow_threshold_us` <= 0 disables tail capture.
  RequestRecorder(SpanCollector* collector, const TraceContext& trace,
                  std::int64_t slow_threshold_us, std::uint8_t root_flags = 0);

  RequestRecorder(const RequestRecorder&) = delete;
  RequestRecorder& operator=(const RequestRecorder&) = delete;

  /// RAII stage span nested under the current innermost open span.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : recorder_(other.recorder_), index_(other.index_) {
      other.recorder_ = nullptr;
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->CloseSpan(index_);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class RequestRecorder;
    Scope(RequestRecorder* recorder, std::size_t index)
        : recorder_(recorder), index_(index) {}
    RequestRecorder* recorder_;
    std::size_t index_;
  };

  Scope Span(std::uint16_t name_id);

  /// Ends the root span and commits or discards the buffer. Returns the
  /// request's e2e latency in µs (0 when the recorder is inactive).
  /// `committed` (optional) reports whether the trace was kept.
  std::int64_t Finish(std::uint16_t root_name_id, bool* committed = nullptr);

  bool active() const { return active_; }

 private:
  friend class Scope;
  void CloseSpan(std::size_t index);

  SpanCollector* collector_;
  TraceContext trace_;
  std::int64_t slow_threshold_us_;
  bool active_;
  bool finished_ = false;
  std::uint8_t root_flags_;
  std::int64_t start_us_ = 0;
  std::uint32_t next_span_id_ = 2;  ///< 1 is reserved for the root.
  std::uint32_t open_parent_ = 1;
  std::vector<SpanRecord> staged_;
};

}  // namespace obs
}  // namespace rtrec

#endif  // RTREC_OBS_SPAN_COLLECTOR_H_
