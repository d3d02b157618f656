#include "obs/span_collector.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace rtrec {
namespace obs {
namespace {

/// Capacity of each per-thread span ring. Full ring = spans drop
/// (counted), never block: tracing must not add backpressure.
constexpr std::size_t kRingCapacity = 4096;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string HexTraceId(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

/// The per-thread ring cache: one collector rarely shares a thread with
/// another, so a tiny linear-scan vector beats a hash map.
struct ThreadRingCache {
  struct Entry {
    const void* collector;
    std::uint64_t instance_id;  ///< Guards address reuse across collectors.
    void* slot;
  };
  std::vector<Entry> entries;

  void* Find(const void* collector, std::uint64_t instance_id) const {
    for (const auto& entry : entries) {
      if (entry.collector == collector && entry.instance_id == instance_id) {
        return entry.slot;
      }
    }
    return nullptr;
  }
};

thread_local ThreadRingCache t_ring_cache;

/// Process-wide collector birth counter: a new collector allocated at a
/// dead one's address must not hit the dead one's cache entries.
std::atomic<std::uint64_t> g_collector_instances{0};

}  // namespace

SpanCollector::SpanCollector(const Options& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &MetricsRegistry::Default()),
      instance_id_(
          g_collector_instances.fetch_add(1, std::memory_order_relaxed)),
      trace_id_seed_(SplitMix64(
          static_cast<std::uint64_t>(Tracer::NowMicros()) ^
          (static_cast<std::uint64_t>(::getpid()) << 32) ^
          reinterpret_cast<std::uintptr_t>(this))),
      spans_recorded_counter_(metrics_->GetCounter(
          "obs.spans.recorded", "span records accepted onto a span ring")),
      spans_dropped_counter_(metrics_->GetCounter(
          "obs.spans.dropped", "span records dropped on a full span ring")),
      traces_finished_counter_(metrics_->GetCounter(
          "obs.traces.finished", "traces assembled to completion")),
      slow_captured_counter_(metrics_->GetCounter(
          "obs.traces.slow_captured",
          "traces kept by tail capture (e2e over --trace-slow-us)")) {
  // Interned id 0 stays "?" so a zeroed record renders sanely.
  names_.push_back("?");
  name_ids_.emplace("?", 0);
  drain_thread_ = std::thread([this] { DrainLoop(); });
}

SpanCollector::~SpanCollector() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  drain_thread_.join();
  DrainOnce();
}

std::uint16_t SpanCollector::InternName(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::string SpanCollector::NameFor(std::uint16_t id) const {
  std::lock_guard<std::mutex> lock(names_mu_);
  if (id >= names_.size()) return "?";
  return names_[id];
}

SpanCollector::RingSlot* SpanCollector::SlotForThisThread() {
  if (void* cached = t_ring_cache.Find(this, instance_id_)) {
    return static_cast<RingSlot*>(cached);
  }
  std::lock_guard<std::mutex> lock(rings_mu_);
  const auto thread_id = static_cast<std::uint16_t>(rings_.size());
  rings_.push_back(
      std::make_unique<RingSlot>(kRingCapacity, thread_id));
  RingSlot* slot = rings_.back().get();
  t_ring_cache.entries.push_back({this, instance_id_, slot});
  return slot;
}

void SpanCollector::Record(SpanRecord record) {
  RingSlot* slot = SlotForThisThread();
  record.thread_id = slot->thread_id;
  if (slot->ring.TryPush(record)) {
    spans_recorded_.fetch_add(1, std::memory_order_relaxed);
    spans_recorded_counter_->Increment();
  } else {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    spans_dropped_counter_->Increment();
  }
}

std::uint64_t SpanCollector::MintTraceId() {
  const std::uint64_t seq =
      trace_id_seq_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t id = SplitMix64(trace_id_seed_ ^ ~seq);
  if (id == 0) id = 1;
  return id;
}

void SpanCollector::Flush() { DrainOnce(); }

void SpanCollector::DrainLoop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(kDrainIntervalMs));
    if (stop_) break;
    lock.unlock();
    DrainOnce();
    lock.lock();
  }
}

void SpanCollector::DrainOnce() {
  std::vector<RingSlot*> slots;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    slots.reserve(rings_.size());
    for (const auto& slot : rings_) slots.push_back(slot.get());
  }
  std::vector<SpanRecord> batch;
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  ++drain_generation_;
  // Roots in ring arrival order: the recorder commits the root last on
  // the same ring, so once the root is visible the whole tree is — and
  // finalizing in root order keeps the retention deque's eviction
  // oldest-first instead of hash-map-arbitrary.
  std::vector<std::uint64_t> done;
  for (RingSlot* slot : slots) {
    batch.clear();
    while (slot->ring.TryPopBatch(batch, 256) > 0) {
      for (SpanRecord& record : batch) {
        PendingTrace& pending = pending_[record.trace_id];
        pending.drain_generation = drain_generation_;
        pending.spans.push_back(record);
        if ((record.flags & kSpanFlagRoot) != 0) {
          done.push_back(record.trace_id);
        }
      }
      batch.clear();
    }
  }
  for (const std::uint64_t trace_id : done) {
    auto node = pending_.extract(trace_id);
    if (node.empty()) continue;  // Two roots under one id: already taken.
    FinalizeTrace(trace_id, std::move(node.mapped().spans));
  }
  // Rootless strays (direct Record calls that never finish a request)
  // must not pin memory forever: evict anything untouched for a while
  // once the map outgrows the retention budget.
  if (pending_.size() > kMaxTraces * 4) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.drain_generation + 2 < drain_generation_) {
        traces_dropped_.fetch_add(1, std::memory_order_relaxed);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void SpanCollector::FinalizeTrace(std::uint64_t trace_id,
                                  std::vector<SpanRecord> spans) {
  FinishedTrace finished;
  finished.trace_id = trace_id;
  // Root first, then children by start time.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     const bool a_root = (a.flags & kSpanFlagRoot) != 0;
                     const bool b_root = (b.flags & kSpanFlagRoot) != 0;
                     if (a_root != b_root) return a_root;
                     return a.start_us < b.start_us;
                   });
  const SpanRecord& root = spans.front();
  finished.total_us = root.end_us - root.start_us;
  finished.hop = root.hop;
  finished.root_flags = root.flags;
  finished.spans = std::move(spans);

  traces_finished_.fetch_add(1, std::memory_order_relaxed);
  traces_finished_counter_->Increment();
  if ((finished.root_flags & kSpanFlagSlowCapture) != 0) {
    slow_captured_.fetch_add(1, std::memory_order_relaxed);
    slow_captured_counter_->Increment();
  }

  std::lock_guard<std::mutex> lock(export_mu_);
  finished_.push_back(finished);
  while (finished_.size() > kMaxTraces) {
    finished_.pop_front();
    traces_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  // Slow view: insertion-sort into the bounded slowest-first list.
  const auto pos = std::upper_bound(
      slow_.begin(), slow_.end(), finished,
      [](const FinishedTrace& a, const FinishedTrace& b) {
        return a.total_us > b.total_us;
      });
  if (pos != slow_.end() || slow_.size() < kSlowKeep) {
    slow_.insert(pos, std::move(finished));
    if (slow_.size() > kSlowKeep) slow_.pop_back();
  }
}

std::string SpanCollector::ExportChromeJson() const {
  std::deque<FinishedTrace> finished;
  {
    std::lock_guard<std::mutex> lock(export_mu_);
    finished = finished_;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const FinishedTrace& trace : finished) {
    for (const SpanRecord& span : trace.spans) {
      if (!first) out += ",";
      first = false;
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\":\"%s\",\"cat\":\"rtrec\",\"ph\":\"X\",\"ts\":%lld,"
          "\"dur\":%lld,\"pid\":%d,\"tid\":%u,\"args\":{\"trace_id\":"
          "\"%s\",\"span_id\":%u,\"parent_id\":%u,\"hop\":%u}}",
          NameFor(span.name_id).c_str(),
          static_cast<long long>(span.start_us),
          static_cast<long long>(span.end_us - span.start_us), span.shard_id,
          span.thread_id, HexTraceId(span.trace_id).c_str(), span.span_id,
          span.parent_id, span.hop);
      out += buf;
    }
  }
  out += "]}";
  return out;
}

std::string SpanCollector::ExportSlowJson() const {
  std::vector<FinishedTrace> slow;
  {
    std::lock_guard<std::mutex> lock(export_mu_);
    slow = slow_;
  }
  std::string out = "{\"slow\":[";
  char buf[192];
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const FinishedTrace& trace = slow[i];
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"trace_id\":\"%s\",\"total_us\":%lld,\"hop\":%u,"
                  "\"shard\":%d,\"slow_capture\":%s,\"stages\":[",
                  HexTraceId(trace.trace_id).c_str(),
                  static_cast<long long>(trace.total_us), trace.hop,
                  trace.spans.empty() ? options_.shard_id
                                      : trace.spans.front().shard_id,
                  (trace.root_flags & kSpanFlagSlowCapture) != 0 ? "true"
                                                                 : "false");
    out += buf;
    bool first_stage = true;
    for (const SpanRecord& span : trace.spans) {
      if ((span.flags & kSpanFlagRoot) != 0) continue;
      if (!first_stage) out += ",";
      first_stage = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"start_us\":%lld,\"dur_us\":%lld}",
                    NameFor(span.name_id).c_str(),
                    static_cast<long long>(span.start_us),
                    static_cast<long long>(span.end_us - span.start_us));
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool SpanCollector::HasTrace(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(export_mu_);
  for (const FinishedTrace& trace : finished_) {
    if (trace.trace_id == trace_id) return true;
  }
  return false;
}

SpanCollector::Stats SpanCollector::GetStats() const {
  Stats stats;
  stats.spans_recorded = spans_recorded_.load(std::memory_order_relaxed);
  stats.spans_dropped = spans_dropped_.load(std::memory_order_relaxed);
  stats.traces_finished = traces_finished_.load(std::memory_order_relaxed);
  stats.traces_dropped = traces_dropped_.load(std::memory_order_relaxed);
  stats.slow_captured = slow_captured_.load(std::memory_order_relaxed);
  return stats;
}

// ---------------------------------------------------------------------------
// RequestRecorder.

RequestRecorder::RequestRecorder(SpanCollector* collector,
                                 const TraceContext& trace,
                                 std::int64_t slow_threshold_us,
                                 std::uint8_t root_flags)
    : collector_(collector),
      trace_(trace),
      slow_threshold_us_(slow_threshold_us),
      active_(collector != nullptr &&
              (trace.sampled() || slow_threshold_us > 0)),
      root_flags_(root_flags) {
  if (active_) {
    start_us_ = Tracer::NowMicros();
    staged_.reserve(8);
  }
}

RequestRecorder::Scope RequestRecorder::Span(std::uint16_t name_id) {
  if (!active_) return Scope(nullptr, 0);
  SpanRecord record;
  record.span_id = next_span_id_++;
  record.parent_id = open_parent_;
  record.start_us = Tracer::NowMicros();
  record.name_id = name_id;
  open_parent_ = record.span_id;
  staged_.push_back(record);
  return Scope(this, staged_.size() - 1);
}

void RequestRecorder::CloseSpan(std::size_t index) {
  SpanRecord& record = staged_[index];
  record.end_us = Tracer::NowMicros();
  open_parent_ = record.parent_id;
}

std::int64_t RequestRecorder::Finish(std::uint16_t root_name_id,
                                     bool* committed) {
  if (committed != nullptr) *committed = false;
  if (!active_ || finished_) return 0;
  finished_ = true;
  const std::int64_t end_us = Tracer::NowMicros();
  const std::int64_t e2e_us = end_us - start_us_;

  std::uint8_t root_flags = root_flags_ | kSpanFlagRoot;
  std::uint64_t trace_id = trace_.id;
  if (!trace_.sampled()) {
    if (slow_threshold_us_ <= 0 || e2e_us < slow_threshold_us_) {
      staged_.clear();  // Reversed: nobody wants this trace.
      return e2e_us;
    }
    trace_id = collector_->MintTraceId();
    root_flags |= kSpanFlagSlowCapture;
  } else if (slow_threshold_us_ > 0 && e2e_us >= slow_threshold_us_) {
    root_flags |= kSpanFlagSlowCapture;
  }

  const int shard = collector_->shard_id();
  for (SpanRecord& record : staged_) {
    record.trace_id = trace_id;
    record.shard_id = shard;
    record.hop = trace_.hop;
    if (record.end_us == 0) record.end_us = end_us;  // Leaked scope.
    collector_->Record(record);
  }
  SpanRecord root;
  root.trace_id = trace_id;
  root.span_id = 1;
  root.parent_id = 0;
  root.start_us = start_us_;
  root.end_us = end_us;
  root.name_id = root_name_id;
  root.shard_id = shard;
  root.hop = trace_.hop;
  root.flags = root_flags;
  collector_->Record(root);  // Root last: its arrival finalizes the trace.
  if (committed != nullptr) *committed = true;
  return e2e_us;
}

}  // namespace obs
}  // namespace rtrec
