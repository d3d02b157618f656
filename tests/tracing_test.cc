#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <chrono>

#include "common/metrics.h"
#include "kvstore/kv_store.h"
#include "obs/span_collector.h"
#include "service/recommendation_service.h"
#include "stream/topology.h"

namespace rtrec {
namespace {

// ---------------------------------------------------------------------------
// Tracer sampling.

TEST(TracerTest, SamplesExactlyOneInN) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.sample_every_n = 4;
  options.metrics = &metrics;
  Tracer tracer(options);

  int sampled = 0;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    const TraceContext context = tracer.StartTrace();
    if (context.sampled()) {
      ++sampled;
      EXPECT_GT(context.start_us, 0);
      ids.insert(context.id);
    }
  }
  // Deterministic round-robin: exactly 100/4, not "roughly".
  EXPECT_EQ(sampled, 25);
  EXPECT_EQ(ids.size(), 25u);  // Distinct ids per sampled trace.
  EXPECT_EQ(metrics.GetCounter("trace.roots")->value(), 100);
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->value(), 25);
}

TEST(TracerTest, SampleEveryZeroDisablesTracing) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.sample_every_n = 0;
  options.metrics = &metrics;
  Tracer tracer(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(tracer.StartTrace().sampled());
  }
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->value(), 0);
}

TEST(TracerTest, SamplingBoundHoldsUnderConcurrency) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.sample_every_n = 8;
  options.metrics = &metrics;
  Tracer tracer(options);

  std::atomic<int> sampled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (tracer.StartTrace().sampled()) sampled.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // 8000 roots at 1-in-8: exactly 1000 sampled — the overhead bound is
  // a hard guarantee, not an expectation.
  EXPECT_EQ(sampled.load(), 1000);
  EXPECT_EQ(metrics.GetCounter("trace.roots")->value(), 8000);
}

// ---------------------------------------------------------------------------
// Thread-current trace and spans.

TEST(ScopedTraceContextTest, InstallsAndRestoresNested) {
  EXPECT_FALSE(CurrentTrace().sampled());
  TraceContext outer;
  outer.id = 7;
  {
    ScopedTraceContext outer_scope(outer);
    EXPECT_EQ(CurrentTrace().id, 7u);
    TraceContext inner;
    inner.id = 9;
    {
      ScopedTraceContext inner_scope(inner);
      EXPECT_EQ(CurrentTrace().id, 9u);
    }
    EXPECT_EQ(CurrentTrace().id, 7u);
  }
  EXPECT_FALSE(CurrentTrace().sampled());
}

TEST(TraceSpanTest, RecordsOnlyUnderSampledTrace) {
  Histogram hist;
  { TraceSpan span(&hist); }  // No current trace: nothing recorded.
  EXPECT_EQ(hist.count(), 0u);

  TraceContext context;
  context.id = 1;
  context.start_us = Tracer::NowMicros();
  {
    ScopedTraceContext scope(context);
    TraceSpan span(&hist);
  }
  EXPECT_EQ(hist.count(), 1u);

  { TraceSpan span(nullptr); }  // Null histogram is always safe.
}

// ---------------------------------------------------------------------------
// Propagation across the stream topology.

const stream::Schema* NumberSchema() {
  static const stream::Schema* schema = new stream::Schema{"n"};
  return schema;
}

class CountingSpout : public stream::Spout {
 public:
  explicit CountingSpout(std::int64_t limit) : limit_(limit) {}

  bool Next(stream::OutputCollector& collector) override {
    if (next_ >= limit_) return false;
    collector.Emit(stream::Tuple(NumberSchema(), next_++));
    return true;
  }

 private:
  std::int64_t limit_;
  std::int64_t next_ = 0;
};

/// Forwards every tuple; under a sampled trace also exercises a KV span
/// through the thread-current context.
class ForwardingBolt : public stream::Bolt {
 public:
  explicit ForwardingBolt(std::atomic<int>* sampled_seen)
      : sampled_seen_(sampled_seen) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    if (CurrentTrace().sampled()) sampled_seen_->fetch_add(1);
    collector.Emit(tuple);
  }

 private:
  std::atomic<int>* sampled_seen_;
};

TEST(TopologyTracingTest, TraceSurvivesSpoutToBoltToBolt) {
  MetricsRegistry metrics;
  Tracer::Options tracer_options;
  tracer_options.sample_every_n = 4;
  tracer_options.metrics = &metrics;
  Tracer tracer(tracer_options);

  std::atomic<int> first_sampled{0};
  std::atomic<int> second_sampled{0};
  stream::TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(100); }, 1);
  builder
      .AddBolt(
          "first",
          [&] { return std::make_unique<ForwardingBolt>(&first_sampled); }, 2)
      .ShuffleGrouping("numbers");
  builder
      .AddBolt(
          "second",
          [&] { return std::make_unique<ForwardingBolt>(&second_sampled); },
          2)
      .ShuffleGrouping("first");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());

  stream::TopologyOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  // 100 spout emissions at 1-in-4: exactly 25 sampled contexts, each of
  // which must reach both bolts (the thread-current trace is installed
  // during Process) and record one entry per stage histogram.
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->value(), 25);
  EXPECT_EQ(first_sampled.load(), 25);
  EXPECT_EQ(second_sampled.load(), 25);
  EXPECT_EQ(tracer.StageHistogram("first")->count(), 25u);
  EXPECT_EQ(tracer.StageHistogram("second")->count(), 25u);
  EXPECT_EQ(tracer.QueueHistogram("first")->count(), 25u);
  EXPECT_EQ(tracer.QueueHistogram("second")->count(), 25u);
  EXPECT_EQ(tracer.SinceRootHistogram("first")->count(), 25u);
  EXPECT_EQ(tracer.SinceRootHistogram("second")->count(), 25u);
  // Unsampled tuples still flow: all 100 processed at both stages.
  EXPECT_EQ(metrics.GetCounter("first.processed")->value(), 100);
  EXPECT_EQ(metrics.GetCounter("second.processed")->value(), 100);
}

TEST(TopologyTracingTest, NullTracerRecordsNoTraceMetrics) {
  MetricsRegistry metrics;
  std::atomic<int> sampled_seen{0};
  stream::TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(50); }, 1);
  builder
      .AddBolt(
          "sink",
          [&] { return std::make_unique<ForwardingBolt>(&sampled_seen); }, 1)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());

  stream::TopologyOptions options;
  options.metrics = &metrics;  // options.tracer stays null.
  auto topo = stream::Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  EXPECT_EQ(sampled_seen.load(), 0);
  EXPECT_EQ(metrics.Report().find("trace."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans in the call-stack-shaped layers.

TEST(ServiceTracingTest, ObserveAndRecommendRecordSpansUnderSampledTrace) {
  MetricsRegistry metrics;
  RecommendationService::Options options;
  options.engine.model.num_factors = 8;
  options.metrics = &metrics;
  RecommendationService service([](VideoId) -> VideoType { return 0; },
                                options);

  UserAction action;
  action.user = 1;
  action.video = 2;
  action.type = ActionType::kPlayTime;
  action.view_fraction = 1.0;
  action.time = 1000;

  // No thread-current trace: spans stay silent.
  service.Observe(action);
  EXPECT_EQ(
      metrics.GetHistogram("trace.stage.service.observe.us")->count(), 0u);

  TraceContext context;
  context.id = 1;
  context.start_us = Tracer::NowMicros();
  {
    ScopedTraceContext scope(context);
    service.Observe(action);
    RecRequest request;
    request.user = 1;
    request.top_n = 5;
    ASSERT_TRUE(service.Recommend(request).ok());
  }
  EXPECT_EQ(
      metrics.GetHistogram("trace.stage.service.observe.us")->count(), 1u);
  EXPECT_EQ(
      metrics.GetHistogram("trace.stage.service.recommend.us")->count(), 1u);
}

TEST(KvStoreTracingTest, OperationsRecordSpansUnderSampledTrace) {
  MetricsRegistry metrics;
  ShardedKvStoreOptions options;
  options.metrics = &metrics;
  ShardedKvStore store(options);

  ASSERT_TRUE(store.Put("k", "v").ok());  // Untraced: no span.
  EXPECT_EQ(metrics.GetHistogram("trace.stage.kvstore.put.us")->count(), 0u);

  TraceContext context;
  context.id = 1;
  context.start_us = Tracer::NowMicros();
  {
    ScopedTraceContext scope(context);
    ASSERT_TRUE(store.Put("k", "w").ok());
    ASSERT_TRUE(store.Get("k").ok());
    ASSERT_TRUE(
        store.Update("k", [](std::string& v) { v += "!"; }, false).ok());
  }
  EXPECT_EQ(metrics.GetHistogram("trace.stage.kvstore.put.us")->count(), 1u);
  EXPECT_EQ(metrics.GetHistogram("trace.stage.kvstore.get.us")->count(), 1u);
  EXPECT_EQ(metrics.GetHistogram("trace.stage.kvstore.update.us")->count(),
            1u);
}

// ---------------------------------------------------------------------------
// Adopted (propagated) trace contexts.

TEST(TracerAdoptTest, AdoptsWireContextVerbatim) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.sample_every_n = 0;  // Local sampling off: adoption bypasses it.
  options.metrics = &metrics;
  Tracer tracer(options);

  const TraceContext adopted = tracer.AdoptTrace(0xFEEDull, /*hop=*/1);
  EXPECT_TRUE(adopted.sampled());
  EXPECT_EQ(adopted.id, 0xFEEDull);
  EXPECT_EQ(adopted.hop, 1);
  EXPECT_GT(adopted.start_us, 0);
  EXPECT_EQ(metrics.GetCounter("trace.adopted")->value(), 1);
  // Adoption does not touch the local sampling counters.
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->value(), 0);
}

TEST(TracerAdoptTest, ZeroTraceIdAdoptsNothing) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.metrics = &metrics;
  Tracer tracer(options);
  EXPECT_FALSE(tracer.AdoptTrace(0, 3).sampled());
  EXPECT_EQ(metrics.GetCounter("trace.adopted")->value(), 0);
}

TEST(TracerAdoptTest, MintedTraceIdsAreDistinctAcrossTracers) {
  MetricsRegistry metrics;
  Tracer::Options options;
  options.sample_every_n = 1;
  options.metrics = &metrics;
  Tracer a(options);
  Tracer b(options);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(a.StartTrace().id);
    ids.insert(b.StartTrace().id);
  }
  EXPECT_EQ(ids.size(), 200u);
}

// ---------------------------------------------------------------------------
// Structured span recording (obs/span_collector.h).

obs::SpanCollector::Options CollectorOptions(MetricsRegistry* metrics) {
  obs::SpanCollector::Options options;
  options.metrics = metrics;
  options.drain_interval_ms = 1;
  return options;
}

TEST(SpanCollectorTest, InternedNamesAreStable) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t engine = collector.InternName("engine");
  EXPECT_EQ(collector.InternName("engine"), engine);
  EXPECT_NE(collector.InternName("decode"), engine);
  EXPECT_EQ(collector.NameFor(engine), "engine");
  EXPECT_EQ(collector.NameFor(9999), "?");
}

/// Pushes a synthetic finished trace straight through Record: one root
/// covering [start, start+total_us] and one child stage inside it.
void RecordSyntheticTrace(obs::SpanCollector* collector, std::uint64_t id,
                          std::int64_t total_us, std::uint16_t root_name,
                          std::uint16_t child_name, std::uint8_t hop = 0) {
  obs::SpanRecord child;
  child.trace_id = id;
  child.span_id = 2;
  child.parent_id = 1;
  child.start_us = 1000;
  child.end_us = 1000 + total_us / 2;
  child.name_id = child_name;
  child.hop = hop;
  collector->Record(child);
  obs::SpanRecord root = child;
  root.span_id = 1;
  root.parent_id = 0;
  root.end_us = 1000 + total_us;
  root.name_id = root_name;
  root.flags = obs::kSpanFlagRoot;
  collector->Record(root);  // Root last: its arrival finalizes the trace.
}

TEST(SpanCollectorTest, AssemblesAndExportsFinishedTraces) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc.recommend");
  const std::uint16_t engine = collector.InternName("engine");
  RecordSyntheticTrace(&collector, 0xABCDEF0123456789ull, 500, rpc, engine);
  collector.Flush();

  EXPECT_TRUE(collector.HasTrace(0xABCDEF0123456789ull));
  EXPECT_FALSE(collector.HasTrace(0x1111ull));
  const auto stats = collector.GetStats();
  EXPECT_EQ(stats.spans_recorded, 2u);
  EXPECT_EQ(stats.traces_finished, 1u);
  EXPECT_EQ(metrics.GetCounter("obs.traces.finished")->value(), 1);

  const std::string json = collector.ExportChromeJson();
  // Chrome trace-event shape: complete events with µs timestamps.
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc.recommend\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine\""), std::string::npos);
  // The trace id is searchable as a 16-hex-digit string.
  EXPECT_NE(json.find("abcdef0123456789"), std::string::npos) << json;
}

TEST(SpanCollectorTest, SlowListIsSortedSlowestFirstAndBounded) {
  MetricsRegistry metrics;
  obs::SpanCollector::Options options = CollectorOptions(&metrics);
  options.slow_keep = 3;
  obs::SpanCollector collector(options);
  const std::uint16_t rpc = collector.InternName("rpc");
  const std::uint16_t stage = collector.InternName("stage");
  for (std::int64_t total : {100, 900, 300, 700, 500}) {
    RecordSyntheticTrace(&collector, static_cast<std::uint64_t>(total), total,
                         rpc, stage);
  }
  collector.Flush();

  const std::string json = collector.ExportSlowJson();
  // Only the slowest 3 survive, slowest first.
  const std::size_t p900 = json.find("\"total_us\":900");
  const std::size_t p700 = json.find("\"total_us\":700");
  const std::size_t p500 = json.find("\"total_us\":500");
  ASSERT_NE(p900, std::string::npos) << json;
  ASSERT_NE(p700, std::string::npos);
  ASSERT_NE(p500, std::string::npos);
  EXPECT_LT(p900, p700);
  EXPECT_LT(p700, p500);
  EXPECT_EQ(json.find("\"total_us\":100"), std::string::npos);
  EXPECT_EQ(json.find("\"total_us\":300"), std::string::npos);
  // Per-stage breakdown rides along.
  EXPECT_NE(json.find("\"stages\":[{\"name\":\"stage\""), std::string::npos)
      << json;
}

TEST(SpanCollectorTest, FinishedTraceRetentionIsBounded) {
  MetricsRegistry metrics;
  obs::SpanCollector::Options options = CollectorOptions(&metrics);
  options.max_traces = 4;
  obs::SpanCollector collector(options);
  const std::uint16_t rpc = collector.InternName("rpc");
  const std::uint16_t stage = collector.InternName("stage");
  for (std::uint64_t id = 1; id <= 20; ++id) {
    RecordSyntheticTrace(&collector, id, 100, rpc, stage);
  }
  collector.Flush();
  // Oldest evicted: only the newest max_traces remain.
  EXPECT_FALSE(collector.HasTrace(1));
  EXPECT_TRUE(collector.HasTrace(20));
  EXPECT_EQ(collector.GetStats().traces_finished, 20u);
}

// ---------------------------------------------------------------------------
// RequestRecorder: staging, commit, tail capture, overhead.

TEST(RequestRecorderTest, SampledRequestCommitsItsSpanTree) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc.recommend");
  const std::uint16_t engine = collector.InternName("engine");

  TraceContext trace;
  trace.id = 0x77;
  trace.start_us = Tracer::NowMicros();
  obs::RequestRecorder recorder(&collector, trace, /*slow_threshold_us=*/0);
  EXPECT_TRUE(recorder.active());
  { const auto span = recorder.Span(engine); }
  bool committed = false;
  recorder.Finish(rpc, &committed);
  EXPECT_TRUE(committed);

  collector.Flush();
  EXPECT_TRUE(collector.HasTrace(0x77));
  EXPECT_EQ(collector.GetStats().spans_recorded, 2u);  // Root + engine.
}

TEST(RequestRecorderTest, UnsampledFastRequestRecordsNothing) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc");
  const std::uint16_t engine = collector.InternName("engine");

  // Unsampled, tail capture armed with an unreachable threshold: spans
  // are staged (reversible buffer) but never reach a ring.
  obs::RequestRecorder recorder(&collector, TraceContext{},
                                /*slow_threshold_us=*/60'000'000);
  EXPECT_TRUE(recorder.active());
  { const auto span = recorder.Span(engine); }
  bool committed = true;
  recorder.Finish(rpc, &committed);
  EXPECT_FALSE(committed);

  collector.Flush();
  EXPECT_EQ(collector.GetStats().spans_recorded, 0u);
  EXPECT_EQ(collector.GetStats().traces_finished, 0u);
}

TEST(RequestRecorderTest, TailCaptureKeepsSlowUnsampledRequest) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc");
  const std::uint16_t engine = collector.InternName("engine");

  obs::RequestRecorder recorder(&collector, TraceContext{},
                                /*slow_threshold_us=*/1'000);
  {
    const auto span = recorder.Span(engine);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool committed = false;
  const std::int64_t e2e = recorder.Finish(rpc, &committed);
  EXPECT_TRUE(committed);
  EXPECT_GE(e2e, 1'000);

  collector.Flush();
  const auto stats = collector.GetStats();
  EXPECT_EQ(stats.traces_finished, 1u);
  EXPECT_EQ(stats.slow_captured, 1u);
  EXPECT_EQ(metrics.GetCounter("obs.traces.slow_captured")->value(), 1);
  // The retroactively kept trace got a minted (non-zero) id and shows up
  // in the slow list flagged as a tail capture.
  const std::string json = collector.ExportSlowJson();
  EXPECT_NE(json.find("\"slow_capture\":true"), std::string::npos) << json;
}

TEST(RequestRecorderTest, InactiveWhenUnsampledAndNoThreshold) {
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc");
  obs::RequestRecorder recorder(&collector, TraceContext{},
                                /*slow_threshold_us=*/0);
  EXPECT_FALSE(recorder.active());
  EXPECT_EQ(recorder.Finish(rpc), 0);
}

TEST(RequestRecorderTest, NullCollectorIsAlwaysInactive) {
  TraceContext trace;
  trace.id = 1;
  trace.start_us = Tracer::NowMicros();
  obs::RequestRecorder recorder(nullptr, trace, 1'000);
  EXPECT_FALSE(recorder.active());
  { const auto span = recorder.Span(0); }
  EXPECT_EQ(recorder.Finish(0), 0);
}

TEST(RequestRecorderTest, OverheadOfDisabledPathIsBounded) {
  // The no-tracing hot path must stay allocation- and ring-free: an
  // inactive recorder's whole lifecycle is a few branches. 200k cycles
  // in well under a second is a deliberately loose wall-clock bound —
  // it catches a pathological regression (locking, ring pushes), not
  // nanosecond drift.
  MetricsRegistry metrics;
  obs::SpanCollector collector(CollectorOptions(&metrics));
  const std::uint16_t rpc = collector.InternName("rpc");
  const std::uint16_t engine = collector.InternName("engine");

  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < 200'000; ++i) {
    obs::RequestRecorder recorder(&collector, TraceContext{},
                                  /*slow_threshold_us=*/0);
    { const auto span = recorder.Span(engine); }
    recorder.Finish(rpc);
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  collector.Flush();
  EXPECT_EQ(collector.GetStats().spans_recorded, 0u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            900)
      << "disabled-tracing overhead regressed";
}

}  // namespace
}  // namespace rtrec
