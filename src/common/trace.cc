#include "common/trace.h"

#include <unistd.h>

#include <chrono>

namespace rtrec {
namespace {

thread_local TraceContext t_current_trace;

/// splitmix64 finalizer: a cheap bijective mixer. Used to spread the
/// (seed ^ counter) sequence over the full u64 space so trace ids minted
/// by different processes are distinct with overwhelming probability.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string StageMetricName(const char* prefix, std::string_view stage,
                            const char* suffix) {
  std::string name;
  name.reserve(std::char_traits<char>::length(prefix) + stage.size() +
               std::char_traits<char>::length(suffix));
  name += prefix;
  name += stage;
  name += suffix;
  return name;
}

}  // namespace

Tracer::Tracer(Options options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &MetricsRegistry::Default()),
      id_seed_(SplitMix64(static_cast<std::uint64_t>(NowMicros()) ^
                          (static_cast<std::uint64_t>(::getpid()) << 32) ^
                          reinterpret_cast<std::uintptr_t>(this))),
      roots_counter_(metrics_->GetCounter(
          "trace.roots", "trace roots seen at this process's boundaries")),
      sampled_counter_(metrics_->GetCounter(
          "trace.sampled", "trace roots that drew a sampled context")),
      adopted_counter_(metrics_->GetCounter(
          "trace.adopted",
          "sampled contexts adopted from the wire instead of minted")) {}

TraceContext Tracer::StartTrace() {
  roots_counter_->Increment();
  if (options_.sample_every_n == 0) return {};
  const std::uint64_t n = roots_.fetch_add(1, std::memory_order_relaxed);
  if (n % options_.sample_every_n != 0) return {};
  TraceContext context;
  const std::uint64_t seq = next_id_.fetch_add(1, std::memory_order_relaxed);
  context.id = SplitMix64(id_seed_ ^ seq);
  if (context.id == 0) context.id = 1;  // 0 means "not sampled".
  context.start_us = NowMicros();
  sampled_counter_->Increment();
  return context;
}

TraceContext Tracer::AdoptTrace(std::uint64_t trace_id, std::uint8_t hop) {
  if (trace_id == 0) return {};
  TraceContext context;
  context.id = trace_id;
  context.start_us = NowMicros();
  context.hop = hop;
  adopted_counter_->Increment();
  return context;
}

Histogram* Tracer::StageHistogram(std::string_view stage) {
  return metrics_->GetHistogram(StageMetricName("trace.stage.", stage, ".us"));
}

Histogram* Tracer::QueueHistogram(std::string_view stage) {
  return metrics_->GetHistogram(
      StageMetricName("trace.stage.", stage, ".queue_us"));
}

Histogram* Tracer::SinceRootHistogram(std::string_view stage) {
  return metrics_->GetHistogram(StageMetricName("trace.e2e.", stage, ".us"));
}

std::int64_t Tracer::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const TraceContext& CurrentTrace() { return t_current_trace; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : previous_(t_current_trace) {
  t_current_trace = context;
}

ScopedTraceContext::~ScopedTraceContext() { t_current_trace = previous_; }

}  // namespace rtrec
