#include "stream/acker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <mutex>
#include <thread>
#include <vector>

#include "stream/reliable_spout.h"
#include "stream/topology.h"

namespace rtrec::stream {
namespace {

/// Collects callback invocations.
struct Outcome {
  std::mutex mu;
  std::map<std::uint64_t, bool> results;  // root -> acked?
  std::atomic<int> acks{0};
  std::atomic<int> fails{0};

  AckTracker::Callback Callback() {
    return [this](std::uint64_t root, bool acked) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_FALSE(results.contains(root)) << "double callback for " << root;
      results[root] = acked;
      (acked ? acks : fails).fetch_add(1);
    };
  }
};

AckTracker::Options FastOptions(std::int64_t timeout = 10'000) {
  AckTracker::Options o;
  o.timeout_millis = timeout;
  o.sweep_interval_millis = 5;
  return o;
}

TEST(AckTrackerTest, CountdownToZeroAcks) {
  AckTracker tracker(FastOptions());
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  const std::uint64_t root = tracker.CreateRoot(owner, 2);
  EXPECT_NE(root, 0u);
  EXPECT_EQ(tracker.PendingRoots(), 1u);
  tracker.Add(root, 1);   // A downstream emission.
  tracker.Add(root, -1);  // One tuple processed.
  EXPECT_EQ(outcome.acks.load(), 0);
  tracker.Add(root, -1);
  tracker.Add(root, -1);  // Count hits zero here.
  EXPECT_EQ(outcome.acks.load(), 1);
  EXPECT_TRUE(outcome.results[root]);
  EXPECT_EQ(tracker.PendingRoots(), 0u);
  tracker.UnregisterOwner(owner);
}

TEST(AckTrackerTest, ZeroInitialCountAcksImmediately) {
  AckTracker tracker(FastOptions());
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  tracker.CreateRoot(owner, 0);
  EXPECT_EQ(outcome.acks.load(), 1);
  tracker.UnregisterOwner(owner);
}

TEST(AckTrackerTest, LateAddsOnResolvedRootsIgnored) {
  AckTracker tracker(FastOptions());
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  const std::uint64_t root = tracker.CreateRoot(owner, 1);
  tracker.Add(root, -1);
  EXPECT_EQ(outcome.acks.load(), 1);
  tracker.Add(root, -1);  // Stale decrement: must not re-fire.
  tracker.Add(root, 5);
  EXPECT_EQ(outcome.acks.load(), 1);
  EXPECT_EQ(outcome.fails.load(), 0);
  tracker.UnregisterOwner(owner);
}

TEST(AckTrackerTest, TimeoutFails) {
  AckTracker tracker(FastOptions(/*timeout=*/30));
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  const std::uint64_t root = tracker.CreateRoot(owner, 3);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (outcome.fails.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(outcome.fails.load(), 1);
  EXPECT_FALSE(outcome.results[root]);
  // A decrement arriving after the failure is ignored.
  tracker.Add(root, -3);
  EXPECT_EQ(outcome.acks.load(), 0);
  tracker.UnregisterOwner(owner);
}

TEST(AckTrackerTest, UnregisterAbandonsPendingRootsSilently) {
  AckTracker tracker(FastOptions(/*timeout=*/20));
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  tracker.CreateRoot(owner, 5);
  tracker.UnregisterOwner(owner);
  EXPECT_EQ(tracker.PendingRoots(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(outcome.fails.load(), 0);  // No callback after unregister.
  EXPECT_EQ(outcome.acks.load(), 0);
}

TEST(AckTrackerTest, OwnersAreIndependent) {
  AckTracker tracker(FastOptions());
  Outcome a, b;
  const std::uint64_t owner_a = tracker.RegisterOwner(a.Callback());
  const std::uint64_t owner_b = tracker.RegisterOwner(b.Callback());
  const std::uint64_t root_a = tracker.CreateRoot(owner_a, 1);
  const std::uint64_t root_b = tracker.CreateRoot(owner_b, 1);
  EXPECT_NE(root_a, root_b);
  tracker.Add(root_a, -1);
  EXPECT_EQ(a.acks.load(), 1);
  EXPECT_EQ(b.acks.load(), 0);
  tracker.Add(root_b, -1);
  EXPECT_EQ(b.acks.load(), 1);
  tracker.UnregisterOwner(owner_a);
  tracker.UnregisterOwner(owner_b);
}

TEST(AckTrackerTest, ConcurrentTreesResolveExactlyOnce) {
  AckTracker tracker(FastOptions());
  Outcome outcome;
  const std::uint64_t owner = tracker.RegisterOwner(outcome.Callback());
  constexpr int kRoots = 2000;
  std::vector<std::uint64_t> roots;
  roots.reserve(kRoots);
  for (int i = 0; i < kRoots; ++i) {
    roots.push_back(tracker.CreateRoot(owner, 4));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&tracker, &roots] {
      for (std::uint64_t root : roots) tracker.Add(root, -1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(outcome.acks.load(), kRoots);
  EXPECT_EQ(outcome.fails.load(), 0);
  EXPECT_EQ(tracker.PendingRoots(), 0u);
  tracker.UnregisterOwner(owner);
}

// ---------------------------------------------------------------------
// Topology-level reliability.

const Schema* NumberSchema() {
  static const Schema* schema = new Schema{"n"};
  return schema;
}

/// Emits `limit` tuples and records Ack/Fail callbacks.
class TrackingSpout : public Spout {
 public:
  TrackingSpout(std::int64_t limit, std::atomic<int>* acks,
                std::atomic<int>* fails)
      : limit_(limit), acks_(acks), fails_(fails) {}

  bool Next(OutputCollector& collector) override {
    if (i_ >= limit_) return false;
    const std::uint64_t id =
        collector.Emit(Tuple(NumberSchema(), i_++));
    EXPECT_NE(id, 0u) << "acking enabled: ids must be assigned";
    return true;
  }
  void Ack(std::uint64_t) override { acks_->fetch_add(1); }
  void Fail(std::uint64_t) override { fails_->fetch_add(1); }

 private:
  std::int64_t limit_;
  std::int64_t i_ = 0;
  std::atomic<int>* acks_;
  std::atomic<int>* fails_;
};

class ForwardBolt : public Bolt {
 public:
  void Process(const Tuple& tuple, OutputCollector& collector) override {
    collector.Emit(tuple);
  }
};

class SinkBolt : public Bolt {
 public:
  void Process(const Tuple&, OutputCollector&) override {}
};

TEST(TopologyAckingTest, EveryTreeAcksThroughMultiStageDag) {
  std::atomic<int> acks{0}, fails{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "src",
      [&] { return std::make_unique<TrackingSpout>(500, &acks, &fails); },
      1);
  builder.AddBolt("mid", [] { return std::make_unique<ForwardBolt>(); }, 3)
      .ShuffleGrouping("src");
  builder.AddBolt("sink", [] { return std::make_unique<SinkBolt>(); }, 2)
      .FieldsGrouping("mid", {"n"});
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.enable_acking = true;
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(acks.load(), 500);
  EXPECT_EQ(fails.load(), 0);
}

TEST(TopologyAckingTest, UnsubscribedEmissionAcksImmediately) {
  class OrphanSpout : public Spout {
   public:
    OrphanSpout(std::atomic<int>* acks) : acks_(acks) {}
    bool Next(OutputCollector& collector) override {
      if (done_) return false;
      done_ = true;
      collector.EmitTo("nobody", Tuple(NumberSchema(), std::int64_t{1}));
      collector.Emit(Tuple(NumberSchema(), std::int64_t{2}));
      return true;
    }
    void Ack(std::uint64_t) override { acks_->fetch_add(1); }

   private:
    bool done_ = false;
    std::atomic<int>* acks_;
  };
  std::atomic<int> acks{0};
  TopologyBuilder builder;
  builder.AddSpout("src",
                   [&] { return std::make_unique<OrphanSpout>(&acks); });
  builder.AddBolt("sink", [] { return std::make_unique<SinkBolt>(); })
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.enable_acking = true;
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_EQ(acks.load(), 2);  // Both the orphaned and the delivered tree.
}

TEST(TopologyAckingTest, SlowConsumerTimesOutTrees) {
  class SlowBolt : public Bolt {
   public:
    void Process(const Tuple&, OutputCollector&) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  };
  std::atomic<int> acks{0}, fails{0};
  TopologyBuilder builder;
  builder.AddSpout(
      "src",
      [&] { return std::make_unique<TrackingSpout>(6, &acks, &fails); });
  builder.AddBolt("slow", [] { return std::make_unique<SlowBolt>(); }, 1)
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.enable_acking = true;
  options.ack_timeout_millis = 15;  // Far below per-tuple latency.
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  EXPECT_GT(fails.load(), 0);  // Back-of-queue trees blew the deadline.
  EXPECT_EQ(acks.load() + fails.load(), 6);
}

TEST(TopologyAckingTest, DisabledAckingAssignsNoIds) {
  class IdCheckSpout : public Spout {
   public:
    bool Next(OutputCollector& collector) override {
      if (done_) return false;
      done_ = true;
      EXPECT_EQ(collector.Emit(Tuple(NumberSchema(), std::int64_t{1})),
                0u);
      return true;
    }

   private:
    bool done_ = false;
  };
  TopologyBuilder builder;
  builder.AddSpout("src", [] { return std::make_unique<IdCheckSpout>(); });
  builder.AddBolt("sink", [] { return std::make_unique<SinkBolt>(); })
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  auto topo = Topology::Create(std::move(spec).value());
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
}

// ---------------------------------------------------------------------
// End-to-end at-least-once with the replaying reliable spout.

TEST(ReliableReplaySpoutTest, EveryTupleEventuallyDeliveredDespiteTimeouts) {
  // A bolt that stalls past the ack deadline the first time it sees each
  // value, succeeding on the retry — transient downstream slowness.
  class FlakyOnceBolt : public Bolt {
   public:
    explicit FlakyOnceBolt(std::mutex* mu, std::set<std::int64_t>* seen,
                           std::set<std::int64_t>* delivered)
        : mu_(mu), seen_(seen), delivered_(delivered) {}
    void Process(const Tuple& tuple, OutputCollector&) override {
      const std::int64_t n = *tuple.GetInt("n");
      bool first = false;
      {
        std::lock_guard<std::mutex> lock(*mu_);
        first = seen_->insert(n).second;
      }
      if (first) {
        // Blow the deadline on the first attempt.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return;
      }
      std::lock_guard<std::mutex> lock(*mu_);
      delivered_->insert(n);
    }

   private:
    std::mutex* mu_;
    std::set<std::int64_t>* seen_;
    std::set<std::int64_t>* delivered_;
  };

  constexpr std::int64_t kTuples = 8;
  std::mutex mu;
  std::set<std::int64_t> seen, delivered;
  ReliableReplaySpout* spout_ptr = nullptr;

  TopologyBuilder builder;
  builder.AddSpout("src", [&spout_ptr] {
    auto counter = std::make_shared<std::int64_t>(0);
    auto spout = std::make_unique<ReliableReplaySpout>(
        [counter]() -> std::optional<Tuple> {
          if (*counter >= kTuples) return std::nullopt;
          return Tuple(NumberSchema(), (*counter)++);
        });
    spout_ptr = spout.get();
    return spout;
  });
  builder
      .AddBolt("flaky",
               [&] {
                 return std::make_unique<FlakyOnceBolt>(&mu, &seen,
                                                        &delivered);
               },
               1)
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.enable_acking = true;
  options.ack_timeout_millis = 25;  // First attempt always times out.
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());

  ASSERT_NE(spout_ptr, nullptr);
  // Every value reached the bolt at least twice and was delivered once.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(kTuples));
  EXPECT_GE(spout_ptr->failed(), static_cast<std::size_t>(kTuples));
  EXPECT_EQ(spout_ptr->in_flight(), 0u);
}

TEST(ReliableReplaySpoutTest, MaxRetriesGivesUp) {
  // A black-hole bolt that always stalls: with max_retries = 2 the spout
  // eventually abandons every tuple instead of looping forever.
  class StallBolt : public Bolt {
   public:
    void Process(const Tuple&, OutputCollector&) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  };
  ReliableReplaySpout* spout_ptr = nullptr;
  TopologyBuilder builder;
  builder.AddSpout("src", [&spout_ptr] {
    auto counter = std::make_shared<std::int64_t>(0);
    ReliableReplaySpout::Options spout_options;
    spout_options.max_retries = 2;
    auto spout = std::make_unique<ReliableReplaySpout>(
        [counter]() -> std::optional<Tuple> {
          if (*counter >= 3) return std::nullopt;
          return Tuple(NumberSchema(), (*counter)++);
        },
        spout_options);
    spout_ptr = spout.get();
    return spout;
  });
  builder.AddBolt("stall", [] { return std::make_unique<StallBolt>(); }, 1)
      .ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  TopologyOptions options;
  options.enable_acking = true;
  options.ack_timeout_millis = 10;
  auto topo = Topology::Create(std::move(spec).value(), options);
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE((*topo)->Start().ok());
  ASSERT_TRUE((*topo)->Join().ok());
  ASSERT_NE(spout_ptr, nullptr);
  EXPECT_EQ(spout_ptr->gave_up(), 3u);
  EXPECT_EQ(spout_ptr->in_flight(), 0u);
}

}  // namespace
}  // namespace rtrec::stream
