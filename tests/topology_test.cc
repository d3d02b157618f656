#include "stream/topology.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "common/fault_injection.h"

namespace rtrec::stream {
namespace {

const Schema* NumberSchema() {
  static const Schema* schema = new Schema{"n"};
  return schema;
}

/// Emits the integers [0, limit).
class CountingSpout : public Spout {
 public:
  explicit CountingSpout(std::int64_t limit) : limit_(limit) {}

  bool Next(OutputCollector& collector) override {
    if (next_ >= limit_) return false;
    collector.Emit(Tuple(NumberSchema(), next_++));
    return true;
  }

 private:
  std::int64_t limit_;
  std::int64_t next_ = 0;
};

/// Accumulates the sum of received numbers into a shared atomic; counts
/// Prepare/Cleanup calls.
class SummingBolt : public Bolt {
 public:
  SummingBolt(std::atomic<std::int64_t>* sum, std::atomic<int>* prepared,
              std::atomic<int>* cleaned)
      : sum_(sum), prepared_(prepared), cleaned_(cleaned) {}

  void Prepare(const TaskContext&) override { prepared_->fetch_add(1); }
  void Cleanup() override { cleaned_->fetch_add(1); }

  void Process(const Tuple& tuple, OutputCollector& collector) override {
    sum_->fetch_add(*tuple.GetIf<std::int64_t>(0));
    collector.Emit(tuple);  // Forward for chained topologies.
  }

 private:
  std::atomic<std::int64_t>* sum_;
  std::atomic<int>* prepared_;
  std::atomic<int>* cleaned_;
};

/// Records which task processed which keys (for fields-grouping checks).
class KeyRecordingBolt : public Bolt {
 public:
  struct State {
    std::mutex mu;
    std::map<std::int64_t, std::set<std::size_t>> tasks_per_key;
  };

  explicit KeyRecordingBolt(State* state) : state_(state) {}

  void Prepare(const TaskContext& context) override {
    task_index_ = context.task_index;
  }

  void Process(const Tuple& tuple, OutputCollector&) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->tasks_per_key[*tuple.GetIf<std::int64_t>(0)].insert(task_index_);
  }

 private:
  State* state_;
  std::size_t task_index_ = 0;
};

TEST(TopologyTest, LinearPipelineProcessesEverything) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};

  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(1000); }, 1);
  builder
      .AddBolt(
          "sum",
          [&] {
            return std::make_unique<SummingBolt>(&sum, &prepared, &cleaned);
          },
          4)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());

  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
  EXPECT_EQ(prepared.load(), 4);
  EXPECT_EQ(cleaned.load(), 4);
  EXPECT_TRUE((*topo)->finished());
  EXPECT_EQ((*topo)->metrics().GetCounter("sum.processed")->value(), 1000);
  EXPECT_EQ((*topo)->metrics().GetCounter("numbers.emitted")->value(), 1000);
}

TEST(TopologyTest, MultipleSpoutTasksShareTheSource) {
  // Each spout instance emits its own 0..99; two tasks -> 200 tuples.
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};

  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(100); }, 2);
  builder
      .AddBolt(
          "sum",
          [&] {
            return std::make_unique<SummingBolt>(&sum, &prepared, &cleaned);
          },
          2)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum.load(), 2 * (99LL * 100 / 2));
}

TEST(TopologyTest, FieldsGroupingSendsKeyToSingleTask) {
  KeyRecordingBolt::State state;
  TopologyBuilder builder;
  builder.AddSpout(
      "numbers",
      [] {
        // Emit each key several times.
        class RepeatSpout : public Spout {
         public:
          bool Next(OutputCollector& collector) override {
            if (i_ >= 500) return false;
            collector.Emit(Tuple(NumberSchema(), i_ % 50));
            ++i_;
            return true;
          }

         private:
          std::int64_t i_ = 0;
        };
        return std::make_unique<RepeatSpout>();
      },
      1);
  builder
      .AddBolt("record",
               [&] { return std::make_unique<KeyRecordingBolt>(&state); }, 4)
      .FieldsGrouping("numbers", {"n"});
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  ASSERT_EQ(state.tasks_per_key.size(), 50u);
  std::set<std::size_t> used_tasks;
  for (const auto& [key, tasks] : state.tasks_per_key) {
    EXPECT_EQ(tasks.size(), 1u) << "key " << key << " hit multiple tasks";
    used_tasks.insert(*tasks.begin());
  }
  EXPECT_GT(used_tasks.size(), 1u);  // Work actually spread out.
}

TEST(TopologyTest, ChainedBoltsCascade) {
  std::atomic<std::int64_t> sum1{0}, sum2{0};
  std::atomic<int> prepared{0}, cleaned{0};

  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(100); }, 1);
  builder
      .AddBolt(
          "first",
          [&] {
            return std::make_unique<SummingBolt>(&sum1, &prepared, &cleaned);
          },
          2)
      .ShuffleGrouping("numbers");
  builder
      .AddBolt(
          "second",
          [&] {
            return std::make_unique<SummingBolt>(&sum2, &prepared, &cleaned);
          },
          3)
      .ShuffleGrouping("first");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum1.load(), 99LL * 100 / 2);
  EXPECT_EQ(sum2.load(), 99LL * 100 / 2);
  EXPECT_EQ(cleaned.load(), 5);  // Every bolt task cleaned up.
}

TEST(TopologyTest, UnsubscribedStreamTuplesAreDroppedAndCounted) {
  class TwoStreamSpout : public Spout {
   public:
    bool Next(OutputCollector& collector) override {
      if (done_) return false;
      done_ = true;
      collector.Emit(Tuple(NumberSchema(), std::int64_t{1}));
      collector.EmitTo("nobody_listens",
                       Tuple(NumberSchema(), std::int64_t{2}));
      return true;
    }

   private:
    bool done_ = false;
  };
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return std::make_unique<TwoStreamSpout>(); });
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               })
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum.load(), 1);
  EXPECT_EQ((*topo)->metrics().GetCounter("src.dropped")->value(), 1);
}

TEST(TopologyTest, MultiStreamSubscriptionsRouteIndependently) {
  // One producer, two named streams with different groupings to the same
  // consumer — the ComputeMF -> MFStorage pattern of Fig. 2 in
  // isolation. Every tuple on both streams must arrive exactly once and
  // the EOS drain must complete despite the double subscription.
  class TwoStreamSpout : public Spout {
   public:
    bool Next(OutputCollector& collector) override {
      if (i_ >= 100) return false;
      collector.EmitTo("left", Tuple(NumberSchema(), i_));
      collector.EmitTo("right", Tuple(NumberSchema(), i_ * 1000));
      ++i_;
      return true;
    }

   private:
    std::int64_t i_ = 0;
  };
  class CountingSink : public Bolt {
   public:
    CountingSink(std::atomic<std::int64_t>* small_sum,
                 std::atomic<std::int64_t>* large_sum)
        : small_sum_(small_sum), large_sum_(large_sum) {}
    void Process(const Tuple& tuple, OutputCollector&) override {
      const std::int64_t n = *tuple.GetIf<std::int64_t>(0);
      (n < 1000 && n != 0 ? *small_sum_ : *large_sum_).fetch_add(n);
    }

   private:
    std::atomic<std::int64_t>* small_sum_;
    std::atomic<std::int64_t>* large_sum_;
  };

  std::atomic<std::int64_t> small_sum{0}, large_sum{0};
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return std::make_unique<TwoStreamSpout>(); });
  builder
      .AddBolt("sink",
               [&] {
                 return std::make_unique<CountingSink>(&small_sum,
                                                       &large_sum);
               },
               3)
      .FieldsGrouping("src", "left", {"n"})
      .ShuffleGrouping("src", "right");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  // left carries 1..99 (0 classified into large bucket, worth 0 anyway);
  // right carries 0,1000,...,99000.
  EXPECT_EQ(small_sum.load() + large_sum.load(),
            99LL * 100 / 2 + 1000LL * (99 * 100 / 2));
  EXPECT_EQ((*topo)->metrics().GetCounter("sink.processed")->value(), 200);
}

TEST(TopologyTest, RequestStopEndsInfiniteSpout) {
  class InfiniteSpout : public Spout {
   public:
    bool Next(OutputCollector& collector) override {
      collector.Emit(Tuple(NumberSchema(), std::int64_t{1}));
      return true;
    }
  };
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout("inf", [] { return std::make_unique<InfiniteSpout>(); });
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               })
      .ShuffleGrouping("inf");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  while (sum.load() < 100) {
  }
  (*topo)->RequestStop();
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_GE(sum.load(), 100);
  EXPECT_EQ(cleaned.load(), 1);  // Clean drain even on forced stop.
}

TEST(TopologyTest, QueueDepthGaugeDrainsToZero) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout("numbers",
                   [] { return std::make_unique<CountingSpout>(2000); }, 2);
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               },
               3)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  // Every pushed data tuple was popped: the gauge returns to zero.
  EXPECT_EQ((*topo)->metrics().GetGauge("sum.queue_depth")->value(), 0);
}

TEST(TopologyTest, StartTwiceFails) {
  TopologyBuilder builder;
  builder.AddSpout("numbers",
                   [] { return std::make_unique<CountingSpout>(1); });
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  EXPECT_FALSE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
}

TEST(TopologyTest, JoinBeforeStartFails) {
  TopologyBuilder builder;
  builder.AddSpout("numbers",
                   [] { return std::make_unique<CountingSpout>(1); });
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  EXPECT_FALSE((*topo)->Join().ok());
}

TEST(TopologyTest, EmptySpecRejected) {
  EXPECT_FALSE(Topology::Create(TopologySpec{}).ok());
}

TEST(TopologyTest, BackpressureSmallQueuesStillComplete) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(5000); }, 2);
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               },
               1)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.queue_capacity = 2;  // Aggressive backpressure.
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum.load(), 2 * (4999LL * 5000 / 2));
}

TEST(TopologyTest, DrainBatchOfOneStillCompletes) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(2000); }, 2);
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               },
               2)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.drain_batch = 1;  // Degenerate batching: one tuple per wakeup.
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum.load(), 2 * (1999LL * 2000 / 2));
}

TEST(TopologyTest, LargeDrainBatchWithTinyQueueStillCompletes) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> prepared{0}, cleaned{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [] { return std::make_unique<CountingSpout>(2000); }, 2);
  builder
      .AddBolt("sum",
               [&] {
                 return std::make_unique<SummingBolt>(&sum, &prepared,
                                                      &cleaned);
               },
               1)
      .ShuffleGrouping("numbers");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.queue_capacity = 2;   // Backpressure on every push...
  options.drain_batch = 4096;   // ...while the consumer asks for huge
                                // batches: PopBatch must cap at
                                // availability, not wait to fill.
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(sum.load(), 2 * (1999LL * 2000 / 2));
}

const Schema* FanoutSchema() {
  static const Schema* schema = new Schema{"n", "k", "task"};
  return schema;
}

/// Emits (n, k, task) for k in [0, per_input) for every input n.
class FanoutBolt : public Bolt {
 public:
  explicit FanoutBolt(std::int64_t per_input) : per_input_(per_input) {}
  void Prepare(const TaskContext& context) override {
    task_ = static_cast<std::int64_t>(context.task_index);
  }
  void Process(const Tuple& tuple, OutputCollector& collector) override {
    const std::int64_t n = *tuple.GetIf<std::int64_t>(0);
    for (std::int64_t k = 0; k < per_input_; ++k) {
      collector.Emit(Tuple(FanoutSchema(), n, k, task_));
    }
  }

 private:
  std::int64_t per_input_;
  std::int64_t task_ = 0;
};

/// Checks that each producer task's tuples arrive in emit order: per
/// producer, (n, k) must strictly increase.
class OrderCheckingSink : public Bolt {
 public:
  OrderCheckingSink(std::atomic<std::int64_t>* received,
                    std::atomic<int>* out_of_order)
      : received_(received), out_of_order_(out_of_order) {}
  void Process(const Tuple& tuple, OutputCollector&) override {
    const std::pair<std::int64_t, std::int64_t> at{
        *tuple.GetIf<std::int64_t>(0), *tuple.GetIf<std::int64_t>(1)};
    auto [it, first] = last_.try_emplace(*tuple.GetIf<std::int64_t>(2), at);
    if (!first) {
      if (!(it->second < at)) out_of_order_->fetch_add(1);
      it->second = at;
    }
    received_->fetch_add(1);
  }

 private:
  std::atomic<std::int64_t>* received_;
  std::atomic<int>* out_of_order_;
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> last_;
};

TEST(TopologyTest, FanoutBeyondDrainBatchIntoTinyQueuesIsExactAndOrdered) {
  // Each input makes 3 × drain_batch emissions, so outboxes flush
  // mid-Process into queues that hold 2: every batch push waits for the
  // consumer several times. Two producer tasks share each sink queue
  // (MPSC).
  constexpr std::int64_t kInputs = 300;
  constexpr std::size_t kDrainBatch = 4;
  constexpr std::int64_t kPerInput = 3 * kDrainBatch;
  std::atomic<std::int64_t> received{0};
  std::atomic<int> out_of_order{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "numbers", [=] { return std::make_unique<CountingSpout>(kInputs); }, 1);
  builder
      .AddBolt("fanout",
               [=] { return std::make_unique<FanoutBolt>(kPerInput); }, 2)
      .ShuffleGrouping("numbers");
  builder
      .AddBolt("sink",
               [&] {
                 return std::make_unique<OrderCheckingSink>(&received,
                                                            &out_of_order);
               },
               2)
      .FieldsGrouping("fanout", {"n"});
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.queue_capacity = 2;
  options.drain_batch = kDrainBatch;
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  MetricsRegistry& m = (*topo)->metrics();
  EXPECT_EQ(m.GetCounter("numbers.emitted")->value(), kInputs);
  EXPECT_EQ(m.GetCounter("fanout.processed")->value(), kInputs);
  EXPECT_EQ(m.GetCounter("fanout.emitted")->value(), kInputs * kPerInput);
  EXPECT_EQ(m.GetCounter("sink.processed")->value(), kInputs * kPerInput);
  EXPECT_EQ(m.GetCounter("fanout.dropped")->value(), 0);
  EXPECT_EQ(m.GetCounter("sink.dropped")->value(), 0);
  EXPECT_EQ(received.load(), kInputs * kPerInput);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_GT(m.GetCounter("stream.queue.push_retries")->value(), 0);
}

// --- Batched counter publication ------------------------------------------
//
// Tasks tally emitted / processed / dropped and their queue depth locally
// and publish once per drained batch; after Join every counter must still
// be exact, whatever crashed or was dropped on the way.

/// Ground truth the bolts record themselves, to compare with the
/// engine's published counters.
struct CountedRun {
  std::atomic<std::int64_t> relay_received{0};
  std::atomic<std::int64_t> relay_ok{0};
  std::atomic<std::int64_t> sink_received{0};
};

/// Forwards every tuple, but throws (before emitting) on every value
/// with n % 997 == 5, so its task crashes and restarts now and then.
class ThrowingRelayBolt : public Bolt {
 public:
  explicit ThrowingRelayBolt(CountedRun* run) : run_(run) {}

  void Process(const Tuple& tuple, OutputCollector& collector) override {
    run_->relay_received.fetch_add(1);
    const std::int64_t n = *tuple.GetIf<std::int64_t>(0);
    if (n % 997 == 5) throw std::runtime_error("relay crash");
    collector.Emit(tuple);
    run_->relay_ok.fetch_add(1);
  }

 private:
  CountedRun* run_;
};

class CountingSinkBolt : public Bolt {
 public:
  explicit CountingSinkBolt(CountedRun* run) : run_(run) {}

  void Process(const Tuple&, OutputCollector&) override {
    run_->sink_received.fetch_add(1);
  }

 private:
  CountedRun* run_;
};

constexpr std::int64_t kCountedTuples = 5000;
// Values in [0, kCountedTuples) with n % 997 == 5: 5, 1002, ..., 4990.
constexpr std::int64_t kRelayCrashes = 6;

class BatchedCountersTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  /// numbers (2 tasks, 2500 each) -shuffle-> relay (2) -fields-> sink (2),
  /// with small queues and batches so publication happens many times.
  std::unique_ptr<Topology> Run(CountedRun* run) {
    TopologyBuilder builder;
    builder.AddSpout(
        "numbers",
        [] { return std::make_unique<CountingSpout>(kCountedTuples / 2); },
        2);
    builder
        .AddBolt("relay",
                 [run] { return std::make_unique<ThrowingRelayBolt>(run); },
                 2)
        .ShuffleGrouping("numbers");
    builder
        .AddBolt("sink",
                 [run] { return std::make_unique<CountingSinkBolt>(run); }, 2)
        .FieldsGrouping("relay", {"n"});
    auto spec = builder.Build();
    EXPECT_TRUE(spec.ok());
    TopologyOptions options;
    options.queue_capacity = 16;
    options.drain_batch = 8;
    options.restart_backoff_initial_ms = 1;
    options.restart_backoff_max_ms = 1;
    auto topo = Topology::Create(std::move(spec).value(), options);
    EXPECT_TRUE(topo.ok());
    EXPECT_TRUE((*topo)->Start().ok());
    EXPECT_TRUE((*topo)->Join().ok());
    return std::move(topo).value();
  }

  /// The identities that hold for any run: every counter matches what
  /// the bolts saw, and every queue-depth gauge is back at zero.
  static void ExpectConsistent(Topology& topo, const CountedRun& run) {
    MetricsRegistry& m = topo.metrics();
    auto count = [&m](const std::string& name) {
      return m.GetCounter(name)->value();
    };
    const std::int64_t relay_crashes =
        run.relay_received.load() - run.relay_ok.load();
    EXPECT_EQ(count("numbers.emitted"), kCountedTuples);
    EXPECT_EQ(count("numbers.dropped"),
              kCountedTuples - run.relay_received.load());
    EXPECT_EQ(count("relay.processed"), run.relay_ok.load());
    EXPECT_EQ(count("relay.emitted"), run.relay_ok.load());
    EXPECT_EQ(count("relay.task_restarts"), relay_crashes);
    EXPECT_EQ(count("relay.dropped"),
              relay_crashes +
                  (count("relay.emitted") - run.sink_received.load()));
    EXPECT_EQ(count("sink.processed"), run.sink_received.load());
    EXPECT_EQ(count("sink.emitted"), 0);
    EXPECT_EQ(count("sink.dropped"), 0);
    EXPECT_GT(count("stream.queue.batch_drains"), 0);
    EXPECT_EQ(m.GetGauge("relay.queue_depth")->value(), 0);
    EXPECT_EQ(m.GetGauge("sink.queue_depth")->value(), 0);
  }
};

TEST_F(BatchedCountersTest, ExactAfterJoinWhenBoltsCrashAndRestart) {
  CountedRun run;
  auto topo = Run(&run);
  ExpectConsistent(*topo, run);
  EXPECT_EQ(run.relay_received.load(), kCountedTuples);
  EXPECT_EQ(run.relay_ok.load(), kCountedTuples - kRelayCrashes);
  EXPECT_EQ(run.sink_received.load(), kCountedTuples - kRelayCrashes);
}

TEST_F(BatchedCountersTest, ExactAfterJoinUnderPushFaults) {
  // Every 50th queue push, across all producer tasks, loses its copy.
  FaultInjector::Instance().Arm("stream.queue.push",
                                FaultSpec::Error().WithEveryNth(50));
  CountedRun run;
  auto topo = Run(&run);
  ExpectConsistent(*topo, run);
  MetricsRegistry& m = topo->metrics();
  const std::int64_t pushes =
      kCountedTuples + m.GetCounter("relay.emitted")->value();
  const std::int64_t relay_crashes =
      run.relay_received.load() - run.relay_ok.load();
  EXPECT_EQ(m.GetCounter("numbers.dropped")->value() +
                m.GetCounter("relay.dropped")->value() - relay_crashes,
            pushes / 50);
  EXPECT_GT(m.GetCounter("numbers.dropped")->value(), 0);
}

}  // namespace
}  // namespace rtrec::stream
