#include "stream/topology.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace rtrec::stream {

namespace {

// Engine-wide queue defaults, used where TopologyOptions leave the size
// at 0.
constexpr std::size_t kDefaultQueueCapacity = 1024;
constexpr std::size_t kDefaultDrainBatch = 64;

// CAS-once (from zero) and monotonic-max stores for the ingest-window
// stamps; contention is a handful of task threads at start/end of run.
void StoreOnce(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t expected = 0;
  slot.compare_exchange_strong(expected, value, std::memory_order_relaxed);
}

void StoreMax(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t current = slot.load(std::memory_order_relaxed);
  while (current < value &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

/// Routes one producer task's emissions to consumer queues. Owns the
/// per-edge routers, so round-robin cursors are task-local (deterministic
/// per task) and no synchronization is needed on the emit path. Emitted
/// and dropped counts are tallied here and reach the component's
/// counters only through Publish().
///
/// Envelopes wait in one outbox per destination queue and go out with
/// one RingQueue::PushBatch per outbox: when it reaches `flush_size`,
/// and whenever the task loop calls Flush (after each drained input
/// batch, after every spout Next, before a restart backoff and before
/// EOS). Fault points and queue-wait stamps are still taken at emit
/// time, and one outbox per queue keeps this task's tuples in emit order
/// on every queue.
class Topology::TaskCollector : public OutputCollector {
 public:
  /// `current_trace` is null for spout tasks (each emission mints a
  /// fresh trace root from `tracer`); for bolt tasks it points at the
  /// trace of the tuple being processed (set by the task loop before
  /// each Process call), which the tuple's emissions join.
  TaskCollector(ComponentRuntime* component, std::vector<StreamEdges> streams,
                Tracer* tracer, const TraceContext* current_trace,
                std::size_t flush_size)
      : component_(component),
        streams_(std::move(streams)),
        tracer_(tracer),
        current_trace_(current_trace),
        flush_size_(std::max<std::size_t>(1, flush_size)) {
    // One outbox per distinct consumer queue, shared by every edge that
    // reaches it.
    for (StreamEdges& stream : streams_) {
      for (EdgeRuntime& edge : stream.edges) {
        for (TaskQueue* queue : edge.consumer_queues) {
          auto it = std::find_if(
              outboxes_.begin(), outboxes_.end(),
              [queue](const Outbox& box) { return box.queue == queue; });
          if (it == outboxes_.end()) {
            it = outboxes_.insert(outboxes_.end(), Outbox{queue, {}});
            it->pending.reserve(flush_size_);
          }
          edge.outbox_of_task.push_back(
              static_cast<std::size_t>(it - outboxes_.begin()));
        }
      }
    }
  }

  void EmitTo(const std::string& stream, Tuple tuple) override {
    std::vector<EdgeRuntime>* edges = nullptr;
    for (StreamEdges& candidate : streams_) {
      if (candidate.stream == stream) {
        edges = &candidate.edges;
        break;
      }
    }
    const bool subscribed = edges != nullptr && !edges->empty();

    // Trace attachment: spout emissions are trace roots (the tracer
    // decides sampling); bolt emissions inherit the trace of the tuple
    // being processed, so a sampled action is followed through every
    // stage it fans out to.
    TraceContext trace;
    if (tracer_ != nullptr) {
      trace = current_trace_ == nullptr ? tracer_->StartTrace()
                                        : *current_trace_;
    }

    if (!subscribed) {
      ++unpublished_dropped_;
      return;
    }
    ++unpublished_emitted_;
    // Only sampled envelopes carry an enqueue timestamp (the tracer's
    // queue histogram needs it); untraced ones pay no clock read.
    const std::int64_t enqueue_us =
        trace.sampled() ? Tracer::NowMicros() : 0;
    // Every grouping routes to one task, so each subscribed edge gets
    // one copy.
    const std::size_t last = edges->size() - 1;
    for (std::size_t e = 0; e <= last; ++e) {
      EdgeRuntime& edge = (*edges)[e];
      const std::size_t task = edge.router.Route(tuple);
      // A fired "stream.queue.push" fault drops this copy on the floor
      // (a lost in-flight tuple): counted, never redelivered.
      if (!RTREC_FAULT_POINT("stream.queue.push").ok()) {
        ++unpublished_dropped_;
        continue;
      }
      // The last edge takes the tuple itself; fan-out copies go to the
      // others.
      Outbox& outbox = outboxes_[edge.outbox_of_task[task]];
      Envelope& envelope = outbox.pending.emplace_back();
      if (e == last) {
        envelope.tuple = std::move(tuple);
      } else {
        envelope.tuple = tuple;
      }
      envelope.trace = trace;
      envelope.enqueue_us = enqueue_us;
      if (outbox.pending.size() >= flush_size_) FlushOutbox(outbox);
    }
  }

  /// Pushes every buffered envelope to its queue. PushBatch blocks while
  /// a consumer is saturated: backpressure.
  void Flush() {
    for (Outbox& outbox : outboxes_) {
      if (!outbox.pending.empty()) FlushOutbox(outbox);
    }
  }

  /// Counts a tuple the task loop dropped (a crashed or degraded task).
  void CountDropped() { ++unpublished_dropped_; }

  /// Adds the tallies since the last call to the component's counters.
  void Publish() {
    if (unpublished_emitted_ != 0) {
      component_->emitted->Increment(unpublished_emitted_);
      unpublished_emitted_ = 0;
    }
    if (unpublished_dropped_ != 0) {
      component_->dropped->Increment(unpublished_dropped_);
      unpublished_dropped_ = 0;
    }
  }

 private:
  // Envelopes emitted to one consumer queue and not yet pushed.
  struct Outbox {
    TaskQueue* queue = nullptr;
    std::vector<Envelope> pending;
  };

  static void FlushOutbox(Outbox& outbox) {
    outbox.queue->PushBatch(outbox.pending);
    outbox.pending.clear();
  }

  ComponentRuntime* component_;
  // A component emits on a handful of streams, so a linear scan beats
  // hashing the stream name.
  std::vector<StreamEdges> streams_;
  Tracer* tracer_;
  const TraceContext* current_trace_;
  const std::size_t flush_size_;
  std::vector<Outbox> outboxes_;
  std::int64_t unpublished_emitted_ = 0;
  std::int64_t unpublished_dropped_ = 0;
};

Topology::Topology(TopologySpec spec, TopologyOptions options)
    : spec_(std::move(spec)), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
}

StatusOr<std::unique_ptr<Topology>> Topology::Create(TopologySpec spec,
                                                     TopologyOptions options) {
  if (spec.components.empty()) {
    return Status::InvalidArgument("empty topology spec");
  }
  std::unique_ptr<Topology> topo(new Topology(std::move(spec), options));
  RTREC_RETURN_IF_ERROR(topo->Wire());
  return topo;
}

Status Topology::Wire() {
  // Resolve queue sizing: TopologyOptions, else the engine defaults.
  resolved_queue_capacity_ = options_.queue_capacity != 0
                                 ? options_.queue_capacity
                                 : kDefaultQueueCapacity;
  resolved_drain_batch_ = options_.drain_batch != 0 ? options_.drain_batch
                                                    : kDefaultDrainBatch;
  queue_stats_.push_retries =
      metrics_->GetCounter("stream.queue.push_retries");
  queue_stats_.batch_drains =
      metrics_->GetCounter("stream.queue.batch_drains");
  queue_stats_.parked_wakeups =
      metrics_->GetCounter("stream.queue.parked_wakeups");
  components_.resize(spec_.components.size());
  // Pass 1: metrics.
  for (std::size_t i = 0; i < spec_.components.size(); ++i) {
    ComponentRuntime& rt = components_[i];
    rt.spec = spec_.components[i];
    const std::string& name = rt.spec.name;
    rt.emitted = metrics_->GetCounter(name + ".emitted");
    rt.processed = metrics_->GetCounter(name + ".processed");
    rt.dropped = metrics_->GetCounter(name + ".dropped");
    rt.queue_depth = metrics_->GetGauge(name + ".queue_depth");
  }
  // Pass 2: expected EOS counts (validating producer references). A
  // consumer task's expected_eos is exactly the number of producer tasks
  // that push into its queue — every upstream task pushes data then one
  // EOS marker — so it doubles as the ring's producer count.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    ComponentRuntime& consumer = components_[i];
    std::unordered_set<std::string> distinct_producers;
    for (const EdgeSpec& edge : consumer.spec.inputs) {
      distinct_producers.insert(edge.from_component);
    }
    for (const std::string& producer_name : distinct_producers) {
      const int p = spec_.IndexOf(producer_name);
      if (p < 0) {
        return Status::InvalidArgument("unknown producer '" + producer_name +
                                       "'");
      }
      consumer.expected_eos +=
          components_[static_cast<std::size_t>(p)].spec.parallelism;
    }
  }
  // Pass 3: input queues — wait-free SPSC where exactly one upstream
  // task feeds the consumer task, CAS-based MPSC where grouping fans
  // several producer tasks into one queue.
  for (ComponentRuntime& rt : components_) {
    if (rt.spec.is_spout()) continue;
    TaskQueue::Options queue_options;
    queue_options.capacity = resolved_queue_capacity_;
    queue_options.single_producer = rt.expected_eos <= 1;
    queue_options.stats = queue_stats_;
    rt.queues.reserve(rt.spec.parallelism);
    for (std::size_t t = 0; t < rt.spec.parallelism; ++t) {
      rt.queues.push_back(std::make_unique<TaskQueue>(queue_options));
    }
  }
  // Pass 4: EOS broadcast targets from the producer side.
  for (ComponentRuntime& consumer : components_) {
    std::unordered_set<std::string> distinct_producers;
    for (const EdgeSpec& edge : consumer.spec.inputs) {
      distinct_producers.insert(edge.from_component);
    }
    for (const std::string& producer_name : distinct_producers) {
      ComponentRuntime& producer =
          components_[static_cast<std::size_t>(spec_.IndexOf(producer_name))];
      for (auto& queue : consumer.queues) {
        producer.eos_targets.push_back(queue.get());
      }
    }
  }
  return Status::OK();
}

Status Topology::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("topology already started");
  }
  // Launch consumers before producers so queues exist (they do — Wire laid
  // them out), and simply spawn everything; queues buffer until ready.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    for (std::size_t t = 0; t < components_[i].spec.parallelism; ++t) {
      if (components_[i].spec.is_spout()) {
        threads_.emplace_back([this, i, t] { RunSpoutTask(i, t); });
      } else {
        threads_.emplace_back([this, i, t] { RunBoltTask(i, t); });
      }
    }
  }
  return Status::OK();
}

Status Topology::Join() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("topology not started");
  }
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
  // Publish the ingest-window stamps so harnesses (perfbench) can
  // compute honest end-to-end throughput: first spout emission through
  // the last terminal bolt finishing its drain, excluding topology
  // setup and thread teardown.
  const std::int64_t first = first_emit_us_.load(std::memory_order_relaxed);
  if (first != 0) {
    metrics_->GetGauge("topology.first_emit_us")->Set(first);
    metrics_->GetGauge("topology.final_done_us")
        ->Set(final_done_us_.load(std::memory_order_relaxed));
  }
  finished_.store(true, std::memory_order_release);
  return Status::OK();
}

void Topology::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
}

Topology::~Topology() {
  RequestStop();
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void Topology::BroadcastEos(ComponentRuntime& component) {
  for (TaskQueue* queue : component.eos_targets) {
    Envelope eos;
    eos.eos = true;
    queue->Push(std::move(eos));
  }
}

std::vector<Topology::StreamEdges> Topology::EdgesFrom(
    const ComponentRuntime& producer) {
  std::vector<StreamEdges> streams;
  for (ComponentRuntime& consumer : components_) {
    for (const EdgeSpec& edge : consumer.spec.inputs) {
      if (edge.from_component != producer.spec.name) continue;
      std::vector<TaskQueue*> queues;
      queues.reserve(consumer.queues.size());
      for (auto& q : consumer.queues) queues.push_back(q.get());
      auto it = std::find_if(
          streams.begin(), streams.end(),
          [&](const StreamEdges& s) { return s.stream == edge.stream; });
      if (it == streams.end()) {
        it = streams.insert(streams.end(), StreamEdges{edge.stream, {}});
      }
      it->edges.emplace_back(edge.grouping, std::move(queues));
    }
  }
  return streams;
}

void Topology::RunSpoutTask(std::size_t component_index,
                            std::size_t task_index) {
  ComponentRuntime& rt = components_[component_index];

  TaskCollector collector(&rt, EdgesFrom(rt), options_.tracer,
                          /*current_trace=*/nullptr, resolved_drain_batch_);

  TaskContext context;
  context.component = rt.spec.name;
  context.task_index = task_index;
  context.parallelism = rt.spec.parallelism;
  context.metrics = metrics_;

  Counter* restarts_total = metrics_->GetCounter("topology.task_restarts");
  Counter* restarts_here =
      metrics_->GetCounter(rt.spec.name + ".task_restarts");

  std::unique_ptr<Spout> spout;
  // Builds (or rebuilds, after a crash) the spout instance. Factory /
  // Open failures leave `spout` null.
  auto make_spout = [&]() -> bool {
    try {
      spout = rt.spec.spout_factory();
      spout->Open(context);
      return true;
    } catch (const std::exception& e) {
      RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                        << " failed to open spout: " << e.what();
    } catch (...) {
      RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                        << " failed to open spout";
    }
    spout.reset();
    return false;
  };

  int consecutive_failures = 0;
  std::int64_t backoff_ms = options_.restart_backoff_initial_ms;
  // A spout has no input batches; its tallies publish every drain_batch
  // Next calls instead.
  std::size_t calls_since_publish = 0;
  bool alive = make_spout();
  // The ingest window opens when the first spout task starts pulling
  // (one clock read per task, not per tuple).
  if (alive) StoreOnce(first_emit_us_, Tracer::NowMicros());
  while (alive && !stop_requested_.load(std::memory_order_acquire)) {
    bool call_ok = false;
    bool has_more = true;
    if (++calls_since_publish >= resolved_drain_batch_) {
      collector.Publish();
      calls_since_publish = 0;
    }
    if (RTREC_FAULT_POINT("stream.spout.next").ok()) {
      try {
        has_more = spout->Next(collector);
        call_ok = true;
      } catch (const std::exception& e) {
        RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                          << " crashed in Next: " << e.what();
      } catch (...) {
        RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                          << " crashed in Next";
      }
    }
    // Whatever this Next emitted goes out before the next call, which may
    // block on the spout's source.
    collector.Flush();
    if (call_ok) {
      consecutive_failures = 0;
      backoff_ms = options_.restart_backoff_initial_ms;
      if (!has_more) break;
      continue;
    }
    // Crash: retire this incarnation and restart from the factory,
    // unless the consecutive-failure budget is spent.
    if (++consecutive_failures > options_.max_task_restarts) {
      RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                        << " exceeded max_task_restarts="
                        << options_.max_task_restarts << "; giving up";
      break;
    }
    restarts_total->Increment();
    restarts_here->Increment();
    try {
      spout->Close();
    } catch (...) {
    }
    spout.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, options_.restart_backoff_max_ms);
    alive = make_spout();
  }
  if (spout != nullptr) {
    try {
      spout->Close();
    } catch (...) {
    }
  }
  collector.Publish();
  BroadcastEos(rt);
}

void Topology::RunBoltTask(std::size_t component_index,
                           std::size_t task_index) {
  ComponentRuntime& rt = components_[component_index];

  TraceContext current_trace;
  TaskCollector collector(&rt, EdgesFrom(rt), options_.tracer, &current_trace,
                          resolved_drain_batch_);

  // Per-task trace histogram pointers, resolved once: the per-tuple cost
  // of tracing on this path is a branch for unsampled tuples and three
  // Histogram::Add calls for sampled ones.
  Tracer* tracer = options_.tracer;
  Histogram* trace_stage_us = nullptr;
  Histogram* trace_queue_us = nullptr;
  Histogram* trace_e2e_us = nullptr;
  if (tracer != nullptr) {
    trace_stage_us = tracer->StageHistogram(rt.spec.name);
    trace_queue_us = tracer->QueueHistogram(rt.spec.name);
    trace_e2e_us = tracer->SinceRootHistogram(rt.spec.name);
  }

  TaskContext context;
  context.component = rt.spec.name;
  context.task_index = task_index;
  context.parallelism = rt.spec.parallelism;
  context.metrics = metrics_;

  Counter* restarts_total = metrics_->GetCounter("topology.task_restarts");
  Counter* restarts_here =
      metrics_->GetCounter(rt.spec.name + ".task_restarts");

  std::unique_ptr<Bolt> bolt;
  // Builds (or rebuilds, after a crash) the bolt instance. Factory /
  // Prepare failures leave `bolt` null.
  auto make_bolt = [&]() -> bool {
    try {
      bolt = rt.spec.bolt_factory();
      bolt->Prepare(context);
      return true;
    } catch (const std::exception& e) {
      RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                        << " failed to prepare bolt: " << e.what();
    } catch (...) {
      RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                        << " failed to prepare bolt";
    }
    bolt.reset();
    return false;
  };

  int consecutive_failures = 0;
  std::int64_t backoff_ms = options_.restart_backoff_initial_ms;
  // A degraded task has spent its restart budget: it keeps draining its
  // queue (dropping tuples) so the EOS cascade still completes.
  bool degraded = !make_bolt();

  TaskQueue& queue = *rt.queues[task_index];
  std::size_t eos_seen = 0;
  // Batched drain: one blocking PopBatch per wakeup amortizes the
  // park/wake handshake over up to resolved_drain_batch_ tuples; the
  // buffer is reused across wakeups so the steady state allocates
  // nothing. Per-tuple semantics (supervision, tracing, EOS counting)
  // are identical to one Pop per tuple.
  std::vector<Envelope> batch;
  batch.reserve(resolved_drain_batch_);
  // This task's tallies, published once per drained batch (Publish).
  std::int64_t unpublished_processed = 0;
  std::int64_t published_depth = 0;
  const auto publish = [&] {
    collector.Flush();
    collector.Publish();
    if (unpublished_processed != 0) {
      rt.processed->Increment(unpublished_processed);
      unpublished_processed = 0;
    }
    const auto depth = static_cast<std::int64_t>(queue.SizeApprox());
    if (depth != published_depth) {
      rt.queue_depth->Add(depth - published_depth);
      published_depth = depth;
    }
  };
  while (eos_seen < rt.expected_eos) {
    batch.clear();
    if (queue.PopBatch(batch, resolved_drain_batch_) == 0) {
      break;  // Queue force-closed.
    }
    for (Envelope& envelope : batch) {
      if (envelope.eos) {
        ++eos_seen;
        continue;
      }
      current_trace = envelope.trace;
      const bool traced = tracer != nullptr && current_trace.sampled();
      std::int64_t trace_start_us = 0;
      if (traced) {
        trace_start_us = Tracer::NowMicros();
        trace_queue_us->Add(trace_start_us - envelope.enqueue_us);
      }
      bool processed_ok = false;
      if (!degraded && RTREC_FAULT_POINT("stream.bolt.process").ok()) {
        try {
          // Install the tuple's trace as the thread-current one so spans
          // in layers the bolt calls into (KV stores, models) attach.
          std::optional<ScopedTraceContext> trace_scope;
          if (traced) trace_scope.emplace(current_trace);
          bolt->Process(envelope.tuple, collector);
          processed_ok = true;
        } catch (const std::exception& e) {
          RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                            << " crashed in Process: " << e.what();
        } catch (...) {
          RTREC_LOG(kError) << rt.spec.name << " task " << task_index
                            << " crashed in Process";
        }
      }
      if (processed_ok) {
        consecutive_failures = 0;
        backoff_ms = options_.restart_backoff_initial_ms;
        ++unpublished_processed;
        if (traced) {
          const std::int64_t end_us = Tracer::NowMicros();
          trace_stage_us->Add(end_us - trace_start_us);
          // At a terminal bolt (result_storage in Fig. 2) this is the
          // pipeline's end-to-end latency for the traced action.
          trace_e2e_us->Add(end_us - current_trace.start_us);
        }
      } else {
        // At-most-once: the tuple is counted as dropped, not redelivered.
        collector.CountDropped();
        if (!degraded) {
          if (++consecutive_failures > options_.max_task_restarts) {
            RTREC_LOG(kError)
                << rt.spec.name << " task " << task_index
                << " exceeded max_task_restarts="
                << options_.max_task_restarts << "; degrading to drain mode";
            degraded = true;
          } else {
            restarts_total->Increment();
            restarts_here->Increment();
            if (bolt != nullptr) {
              try {
                bolt->Cleanup();
              } catch (...) {
              }
            }
            collector.Flush();  // Nothing waits out the backoff.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms =
                std::min(backoff_ms * 2, options_.restart_backoff_max_ms);
            degraded = !make_bolt();
          }
        }
      }
      current_trace = TraceContext{};
    }
    publish();
  }
  publish();
  if (bolt != nullptr) {
    try {
      bolt->Cleanup();
    } catch (...) {
    }
  }
  // Every task broadcasts its own marker; consumers expect one marker per
  // upstream task, so the drain completes exactly once per edge.
  BroadcastEos(rt);
  // A terminal bolt (no downstream subscribers) finishing its drain
  // closes the ingest window.
  if (rt.eos_targets.empty()) {
    StoreMax(final_done_us_, Tracer::NowMicros());
  }
}

}  // namespace rtrec::stream
