#ifndef RTREC_COMMON_TRACE_H_
#define RTREC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/metrics.h"

namespace rtrec {

/// Lightweight request/tuple tracing with bounded-overhead sampling.
///
/// A *trace* follows one unit of work — a user action entering the Fig. 2
/// topology at the spout, or an RPC entering RecServer — across every
/// stage it touches: bolts, the KV stores behind them, the service, the
/// wire. A Tracer mints a TraceContext at the boundary; the context rides
/// along (tuple envelopes in the stream engine, a thread-local in
/// call-stack-shaped layers) and each stage records its elapsed time into
/// per-stage latency histograms in a MetricsRegistry:
///
///   trace.stage.<stage>.us        in-stage processing time
///   trace.stage.<stage>.queue_us  queue wait before the stage (stream only)
///   trace.e2e.<stage>.us          time since the trace root when the
///                                 stage finished (at the terminal stage
///                                 this is the pipeline's end-to-end
///                                 latency)
///
/// Sampling is deterministic 1-in-N (an atomic round-robin counter, not a
/// coin flip), so tests and benches get exact expected counts and the
/// overhead bound is a hard guarantee: N-1 of every N roots carry a null
/// context and pay one branch per stage, no clock reads, no histogram
/// work.
///
/// The histograms land in the registry passed at construction
/// (MetricsRegistry::Default() when none is), so they are scraped by the
/// same Stats RPC / Prometheus endpoint as every other metric and feed
/// perfbench's per-stage percentiles.

/// The sampling decision plus the trace identity, carried with the work.
/// A default-constructed (id == 0) context means "not sampled": every
/// recording operation on it is a no-op.
struct TraceContext {
  /// Unique per sampled trace; 0 = not sampled. Ids are mixed with a
  /// per-process seed (splitmix64) so traces minted on different shards
  /// of a cluster never collide and cross-process spans stitch by id.
  std::uint64_t id = 0;
  /// Steady-clock microseconds when the trace was minted at its root.
  std::int64_t start_us = 0;
  /// Failover hop depth: 0 for the shard that owns the key, +1 per
  /// ClusterClient failover attempt. Carried on the wire so a shard
  /// serving out of preference order shows up in the stitched trace.
  std::uint8_t hop = 0;

  bool sampled() const { return id != 0; }
};

class Tracer {
 public:
  struct Options {
    /// Sample one trace root in every `sample_every_n`. 1 traces
    /// everything, 0 disables tracing entirely (StartTrace always
    /// returns a null context).
    std::uint32_t sample_every_n = 64;
    /// Histogram/counter sink; null falls back to
    /// MetricsRegistry::Default().
    MetricsRegistry* metrics = nullptr;
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(Options options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Mints a context at a trace boundary. Thread-safe. Exactly one call
  /// in every `sample_every_n` returns a sampled context (deterministic
  /// round-robin); the rest return a null context at the cost of one
  /// atomic increment. Counts "trace.roots" and "trace.sampled".
  TraceContext StartTrace();

  /// Adopts a sampled context that arrived over the wire instead of
  /// minting a new root (Dapper semantics: the sampling decision is made
  /// once, at the root; downstream processes honor it regardless of
  /// their local sample rate). `start_us` is this process's local clock
  /// — since-root spans stay per-process; cross-process stitching is by
  /// trace id. Counts "trace.adopted".
  TraceContext AdoptTrace(std::uint64_t trace_id, std::uint8_t hop);

  /// Named histograms a stage records into. Callers on hot paths should
  /// resolve these once (at task/handler setup) and reuse the pointer —
  /// lookup takes the registry lock.
  Histogram* StageHistogram(std::string_view stage);      // trace.stage.<s>.us
  Histogram* QueueHistogram(std::string_view stage);      // trace.stage.<s>.queue_us
  Histogram* SinceRootHistogram(std::string_view stage);  // trace.e2e.<s>.us

  /// Steady-clock microseconds (the clock trace timestamps use).
  static std::int64_t NowMicros();

 private:
  Options options_;
  MetricsRegistry* metrics_;
  std::atomic<std::uint64_t> roots_{0};
  std::atomic<std::uint64_t> next_id_{0};
  std::uint64_t id_seed_;
  Counter* roots_counter_;
  Counter* sampled_counter_;
  Counter* adopted_counter_;
};

/// The trace context attached to the calling thread (null context when
/// none is installed). Lets layers shaped like a call stack — the
/// service, engines, KV stores — attach spans to the enclosing request's
/// trace without plumbing a context parameter through every signature.
const TraceContext& CurrentTrace();

/// RAII install of `context` as the thread's current trace; restores the
/// previous context on destruction (nesting-safe).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// RAII span tied to the thread's current trace: records elapsed
/// microseconds into `hist` on destruction iff the thread carried a
/// sampled trace at construction. When it did not, the whole span costs
/// one thread-local read and a branch — no clock reads. A null `hist`
/// also disables the span.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* hist)
      : hist_(hist != nullptr && CurrentTrace().sampled() ? hist : nullptr),
        start_us_(hist_ != nullptr ? Tracer::NowMicros() : 0) {}

  ~TraceSpan() {
    if (hist_ != nullptr) {
      hist_->Add(Tracer::NowMicros() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Histogram* hist_;
  std::int64_t start_us_;
};

}  // namespace rtrec

#endif  // RTREC_COMMON_TRACE_H_
