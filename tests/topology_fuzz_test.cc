/// Randomized stream-engine test: build random DAGs of counting bolts
/// with random groupings and parallelism, run them to completion, and
/// verify tuple conservation — every component processes exactly the
/// number of tuples its subscriptions imply, regardless of topology
/// shape, thread interleaving, or queue pressure. Fan-out comes from
/// several bolts subscribing to one producer's stream, as the Fig. 2
/// spout feeds both compute_mf and user_history.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/random.h"
#include "stream/topology.h"

namespace rtrec::stream {
namespace {

const Schema* NumberSchema() {
  static const Schema* schema = new Schema{"n"};
  return schema;
}

class EmitNSpout : public Spout {
 public:
  explicit EmitNSpout(std::int64_t n) : n_(n) {}
  bool Next(OutputCollector& collector) override {
    if (i_ >= n_) return false;
    collector.Emit(Tuple(NumberSchema(), i_++));
    return true;
  }

 private:
  std::int64_t n_;
  std::int64_t i_ = 0;
};

/// Counts inputs and forwards every tuple.
class ForwardingBolt : public Bolt {
 public:
  explicit ForwardingBolt(std::atomic<std::int64_t>* count)
      : count_(count) {}
  void Process(const Tuple& tuple, OutputCollector& collector) override {
    count_->fetch_add(1, std::memory_order_relaxed);
    collector.Emit(tuple);
  }

 private:
  std::atomic<std::int64_t>* count_;
};

struct FuzzComponent {
  std::string name;
  std::size_t parallelism = 1;
  // For bolts: (producer index, fields grouping rather than shuffle?)
  // pairs.
  std::vector<std::pair<std::size_t, bool>> inputs;
};

TEST(TopologyFuzzTest, RandomDagsConserveTuples) {
  Rng rng(20160626);
  for (int trial = 0; trial < 12; ++trial) {
    static constexpr std::int64_t kTuplesPerSpoutTask = 500;
    const std::size_t num_spouts = 1 + rng.NextUint64(2);
    const std::size_t num_bolts = 1 + rng.NextUint64(5);

    // Plan the DAG: bolt i may subscribe to any earlier component.
    std::vector<FuzzComponent> plan;
    for (std::size_t s = 0; s < num_spouts; ++s) {
      FuzzComponent c;
      c.name = "spout" + std::to_string(s);
      c.parallelism = 1 + rng.NextUint64(3);
      plan.push_back(c);
    }
    for (std::size_t b = 0; b < num_bolts; ++b) {
      FuzzComponent c;
      c.name = "bolt" + std::to_string(b);
      c.parallelism = 1 + rng.NextUint64(4);
      const std::size_t num_inputs =
          1 + rng.NextUint64(std::min<std::size_t>(2, plan.size()));
      std::vector<std::size_t> producers;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        const std::size_t producer = rng.NextUint64(plan.size());
        if (std::find(producers.begin(), producers.end(), producer) !=
            producers.end()) {
          continue;  // No duplicate edges in this fuzz.
        }
        producers.push_back(producer);
        c.inputs.emplace_back(producer, rng.NextBool(0.5));
      }
      plan.push_back(c);
    }

    // Build it.
    std::vector<std::unique_ptr<std::atomic<std::int64_t>>> counters(
        plan.size());
    for (auto& c : counters) {
      c = std::make_unique<std::atomic<std::int64_t>>(0);
    }
    TopologyBuilder builder;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const FuzzComponent& c = plan[i];
      if (c.inputs.empty() && c.name.starts_with("spout")) {
        builder.AddSpout(
            c.name,
            [] { return std::make_unique<EmitNSpout>(kTuplesPerSpoutTask); },
            c.parallelism);
      } else {
        auto declarer = builder.AddBolt(
            c.name,
            [counter = counters[i].get()] {
              return std::make_unique<ForwardingBolt>(counter);
            },
            c.parallelism);
        for (const auto& [producer, fields_grouping] : c.inputs) {
          if (fields_grouping) {
            declarer.FieldsGrouping(plan[producer].name, {"n"});
          } else {
            declarer.ShuffleGrouping(plan[producer].name);
          }
        }
      }
    }
    auto spec = builder.Build();
    ASSERT_TRUE(spec.ok()) << "trial " << trial;
    TopologyOptions options;
    options.queue_capacity = 16;  // Pressure the backpressure path.
    auto topo = Topology::Create(std::move(spec).value(), options);
    ASSERT_TRUE(topo.ok());
    ASSERT_TRUE((*topo)->Start().ok());
    ASSERT_TRUE((*topo)->Join().ok());

    // Conservation: expected outputs per component, in plan order.
    std::vector<std::int64_t> expected(plan.size(), 0);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const FuzzComponent& c = plan[i];
      if (c.inputs.empty()) {
        expected[i] =
            kTuplesPerSpoutTask * static_cast<std::int64_t>(c.parallelism);
        continue;
      }
      std::int64_t inputs = 0;
      for (const auto& input : c.inputs) inputs += expected[input.first];
      expected[i] = inputs;
      EXPECT_EQ(counters[i]->load(), inputs)
          << "trial " << trial << " component " << c.name;
    }
  }
}

}  // namespace
}  // namespace rtrec::stream
