#ifndef RTREC_STREAM_BOLT_H_
#define RTREC_STREAM_BOLT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "stream/tuple.h"

namespace rtrec::stream {

/// Name of the stream used when a component emits without naming one.
inline const char kDefaultStream[] = "default";

/// Per-task runtime information handed to spouts and bolts at startup.
struct TaskContext {
  /// Component name as declared in the topology.
  std::string component;
  /// This task's index within the component, in [0, parallelism).
  std::size_t task_index = 0;
  /// The component's parallelism (number of tasks).
  std::size_t parallelism = 1;
  /// Topology-wide metrics registry (never null while running).
  MetricsRegistry* metrics = nullptr;
};

/// Sink for tuples produced by a spout or bolt. Bound to the emitting task;
/// not thread-safe (each task runs on one thread, as in Storm executors).
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;

  /// Emits `tuple` on the component's default stream.
  void Emit(Tuple tuple) { EmitTo(kDefaultStream, std::move(tuple)); }

  /// Emits `tuple` on the named stream. Delivery is at-most-once: tuples
  /// on streams nobody subscribes to, and copies lost in flight, are
  /// dropped and counted in "<component>.dropped".
  virtual void EmitTo(const std::string& stream, Tuple tuple) = 0;
};

/// A stream transformer: consumes input tuples, optionally emits output
/// tuples (Storm bolt). One instance is created per task via the factory,
/// so instances may keep per-task state without synchronization.
class Bolt {
 public:
  virtual ~Bolt() = default;

  /// Called once on the task's thread before any Process call.
  virtual void Prepare(const TaskContext& context) { (void)context; }

  /// Called for every input tuple, on the task's thread.
  virtual void Process(const Tuple& tuple, OutputCollector& collector) = 0;

  /// Called once after the last Process call, before shutdown.
  virtual void Cleanup() {}
};

/// A stream source (Storm spout). `Next` is called in a loop on the task's
/// thread; returning false signals exhaustion, after which the topology
/// drains and shuts the downstream bolts cleanly.
class Spout {
 public:
  virtual ~Spout() = default;

  /// Called once on the task's thread before any Next call.
  virtual void Open(const TaskContext& context) { (void)context; }

  /// Emits zero or more tuples. Returns false when the source is
  /// exhausted (finite replay) — a production spout simply never returns
  /// false.
  virtual bool Next(OutputCollector& collector) = 0;

  /// Called once after the final Next call.
  virtual void Close() {}
};

/// Factories create one instance per task.
using BoltFactory = std::function<std::unique_ptr<Bolt>()>;
using SpoutFactory = std::function<std::unique_ptr<Spout>()>;

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_BOLT_H_
