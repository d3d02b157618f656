#ifndef RTREC_STREAM_TOPOLOGY_H_
#define RTREC_STREAM_TOPOLOGY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "concurrent/ring_queue.h"
#include "stream/acker.h"
#include "stream/bolt.h"
#include "stream/topology_builder.h"

namespace rtrec::stream {

/// Execution options for a topology.
struct TopologyOptions {
  /// Capacity of each bolt task's input queue (rounded up to a power of
  /// two). Full queues block producers, giving end-to-end backpressure
  /// (Storm's max pending). 0 = use the TopologySpec's declared default
  /// if any, else 1024.
  std::size_t queue_capacity = 0;

  /// Upper bound on tuples a bolt task drains from its ring per wakeup.
  /// Batching amortizes the park/wake handshake (and, cross-core, the
  /// cache-line bounce) over many tuples. 0 = spec default, else 64.
  std::size_t drain_batch = 0;

  /// Metrics sink; if null the topology owns a private registry.
  MetricsRegistry* metrics = nullptr;

  /// Enables at-least-once tuple-tree tracking (Storm's reliability
  /// layer): spout emissions open tracked trees, and Spout::Ack /
  /// Spout::Fail fire on completion or timeout. Off by default — the
  /// recommendation pipeline tolerates at-most-once, as the paper's
  /// deployment does.
  bool enable_acking = false;
  std::int64_t ack_timeout_millis = 30000;

  /// Supervision policy (Storm's supervisor, folded into the task loop):
  /// a task whose bolt Process / spout Next throws — or whose
  /// "stream.bolt.process" / "stream.spout.next" fault point fires — is
  /// restarted: the component instance is destroyed, recreated from its
  /// factory, and re-Prepared/re-Opened after an exponentially growing
  /// backoff. The budget counts *consecutive* failures and resets on the
  /// first successful call. A task that exhausts the budget degrades to
  /// draining its input (dropping tuples, counted in "<name>.dropped")
  /// instead of killing the process; with acking on, dropped tuples fail
  /// by ack-timeout and the spout replays them. Restarts increment
  /// "topology.task_restarts" and "<name>.task_restarts".
  int max_task_restarts = 3;
  std::int64_t restart_backoff_initial_ms = 5;
  std::int64_t restart_backoff_max_ms = 1000;

  /// Distributed tracing across the topology (common/trace.h), and the
  /// only source of per-bolt latency. When set, every spout emission is
  /// a trace root (sampled 1-in-N by the tracer); sampled contexts ride
  /// the tuple envelopes to every downstream bolt, which records
  /// "trace.stage.<component>.us" / ".queue_us" and
  /// "trace.e2e.<component>.us" into the tracer's registry and installs
  /// the context as the thread-current trace for the duration of
  /// Process (so KV-store / service spans nest under it). Null disables
  /// tracing, and with it all per-bolt timing, at zero cost; queue
  /// health then comes from "<component>.queue_depth" and
  /// "stream.queue.*".
  Tracer* tracer = nullptr;
};

/// A running instance of a TopologySpec: one thread per task (Storm
/// executor), bounded queues between components, grouping-based routing.
///
/// Lifecycle:
///   auto topo = Topology::Create(spec, options);
///   topo->Start();
///   ... (optionally topo->RequestStop() for infinite spouts)
///   topo->Join();   // returns when every task has cleanly finished
///
/// Completion protocol: when a spout's Next() returns false the spout task
/// broadcasts end-of-stream markers to its consumers; each bolt task
/// finishes after receiving one marker from every upstream producer task,
/// runs Cleanup(), and forwards markers downstream. The cascade drains the
/// DAG deterministically, so tests can assert on totals after Join().
///
/// Failure handling: component exceptions never escape a task thread.
/// Crashed components are restarted per TopologyOptions' supervision
/// policy, and a task that exhausts its restart budget keeps draining its
/// queue so the EOS cascade — and therefore Join() — always completes.
class Topology {
 public:
  /// Validates per-task construction and wires queues/routers.
  static StatusOr<std::unique_ptr<Topology>> Create(
      TopologySpec spec, TopologyOptions options = {});

  ~Topology();

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Spawns all task threads. Call at most once.
  Status Start();

  /// Blocks until every task finished (requires Start()).
  Status Join();

  /// Asks spouts to stop at their next Next() boundary; the normal
  /// end-of-stream drain then completes the topology. Non-blocking.
  void RequestStop();

  /// True once Join() has completed.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// The registry holding the "<component>.emitted|processed|dropped"
  /// counters and "<component>.queue_depth" gauges. Per-bolt latency is
  /// the tracer's (TopologyOptions::tracer), in the tracer's registry.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  struct Envelope {
    Tuple tuple;
    bool eos = false;
    // Tuple-tree root this tuple is anchored to (0 = untracked).
    std::uint64_t root = 0;
    // Trace this tuple belongs to (null context when unsampled) and the
    // time it was enqueued, for queue-wait accounting. Only sampled
    // envelopes pay the clock read at enqueue; the rest carry 0.
    TraceContext trace;
    std::int64_t enqueue_us = 0;
  };

  // Lock-free ring-backed task queue (concurrent::RingQueue): SPSC when
  // exactly one upstream task feeds the consumer task, MPSC where
  // grouping fans several producer tasks into one queue.
  using TaskQueue = concurrent::RingQueue<Envelope>;

  // One (consumer, stream) subscription as seen from a producer task.
  struct EdgeRuntime {
    GroupingRouter router;
    std::vector<TaskQueue*> consumer_queues;
    // Per consumer task, the index of the producer TaskCollector's outbox
    // for that task's queue (filled by the collector).
    std::vector<std::size_t> outbox_of_task;

    EdgeRuntime(Grouping grouping, std::vector<TaskQueue*> queues)
        : router(std::move(grouping), queues.size()),
          consumer_queues(std::move(queues)) {}
  };

  // A producer task's subscriptions on one named stream.
  struct StreamEdges {
    std::string stream;
    std::vector<EdgeRuntime> edges;
  };

  class TaskCollector;

  struct ComponentRuntime {
    ComponentSpec spec;
    // Input queues, one per task (bolts only).
    std::vector<std::unique_ptr<TaskQueue>> queues;
    // Number of EOS markers each task must see before finishing:
    // sum of parallelism over distinct upstream producer components.
    std::size_t expected_eos = 0;
    // Queues of every task of every distinct downstream consumer
    // component — targets of this component's EOS broadcast.
    std::vector<TaskQueue*> eos_targets;
    // Per-tuple counts are tallied by each task and published once per
    // drained batch (for spouts, per drain_batch Next calls) and when
    // the task finishes: exact after Join, up to one batch behind while
    // running, and off the cache lines sibling tasks share.
    Counter* emitted = nullptr;
    Counter* processed = nullptr;
    Counter* dropped = nullptr;
    // Envelopes buffered across this component's input queues
    // ("<component>.queue_depth"): each task publishes its ring's
    // occupancy after every drained batch, so it is never negative and
    // reads 0 after a clean drain.
    Gauge* queue_depth = nullptr;
  };

  Topology(TopologySpec spec, TopologyOptions options);

  Status Wire();
  void RunSpoutTask(std::size_t component_index, std::size_t task_index);
  void RunBoltTask(std::size_t component_index, std::size_t task_index);
  std::vector<StreamEdges> EdgesFrom(const ComponentRuntime& producer);
  void BroadcastEos(ComponentRuntime& component);

  TopologySpec spec_;
  TopologyOptions options_;
  // queue_capacity / drain_batch after the options → spec → engine
  // default resolution.
  std::size_t resolved_queue_capacity_ = 0;
  std::size_t resolved_drain_batch_ = 0;
  // Topology-wide ring counters ("stream.queue.*"), shared by every
  // task queue.
  TaskQueue::Stats queue_stats_;
  // Ingest-window stamps for honest end-to-end throughput accounting
  // (published as gauges by Join): the first spout emission and the
  // last *terminal* bolt task (one with no downstream subscribers)
  // finishing its drain.
  std::atomic<std::int64_t> first_emit_us_{0};
  std::atomic<std::int64_t> final_done_us_{0};
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;

  std::vector<ComponentRuntime> components_;
  std::unique_ptr<AckTracker> acker_;  // Non-null iff acking enabled.
  // With acking, finished spouts are parked here (still registered with
  // the tracker) so trees completing after the spout's last Next() still
  // reach Ack/Fail; Join()/~Topology unregister and destroy them.
  std::mutex parked_spouts_mu_;
  std::vector<std::pair<std::unique_ptr<Spout>, std::uint64_t>>
      parked_spouts_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
};

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_TOPOLOGY_H_
