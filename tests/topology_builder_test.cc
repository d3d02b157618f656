#include "stream/topology_builder.h"

#include <gtest/gtest.h>

namespace rtrec::stream {
namespace {

class NopBolt : public Bolt {
 public:
  void Process(const Tuple&, OutputCollector&) override {}
};

class NopSpout : public Spout {
 public:
  bool Next(OutputCollector&) override { return false; }
};

SpoutFactory MakeSpout() {
  return [] { return std::make_unique<NopSpout>(); };
}

BoltFactory MakeBolt() {
  return [] { return std::make_unique<NopBolt>(); };
}

TEST(TopologyBuilderTest, ValidLinearTopologyBuilds) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout(), 2);
  builder.AddBolt("mid", MakeBolt(), 3).ShuffleGrouping("src");
  builder.AddBolt("sink", MakeBolt(), 1).FieldsGrouping("mid", {"k"});
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->components.size(), 3u);
}

TEST(TopologyBuilderTest, TopologicalOrderPutsProducersFirst) {
  TopologyBuilder builder;
  // Declare out of order: sink first.
  builder.AddBolt("sink", MakeBolt()).ShuffleGrouping("mid");
  builder.AddBolt("mid", MakeBolt()).ShuffleGrouping("src");
  builder.AddSpout("src", MakeSpout());
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  EXPECT_LT(spec->IndexOf("src"), spec->IndexOf("mid"));
  EXPECT_LT(spec->IndexOf("mid"), spec->IndexOf("sink"));
}

TEST(TopologyBuilderTest, DuplicateNamesRejected) {
  TopologyBuilder builder;
  builder.AddSpout("x", MakeSpout());
  builder.AddBolt("x", MakeBolt()).ShuffleGrouping("x");
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, UnknownProducerRejected) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("b", MakeBolt()).ShuffleGrouping("ghost");
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, UnsubscribedBoltRejected) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("island", MakeBolt());
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, NoSpoutRejected) {
  TopologyBuilder builder;
  builder.AddBolt("a", MakeBolt()).ShuffleGrouping("b");
  builder.AddBolt("b", MakeBolt()).ShuffleGrouping("a");
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, CycleRejected) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("a", MakeBolt()).ShuffleGrouping("src").ShuffleGrouping(
      "b");
  builder.AddBolt("b", MakeBolt()).ShuffleGrouping("a");
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, SelfLoopRejected) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("a", MakeBolt()).ShuffleGrouping("a");
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, FieldsGroupingWithoutFieldsRejected) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("a", MakeBolt()).FieldsGrouping("src", {});
  EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
}

TEST(TopologyBuilderTest, ZeroParallelismClampsToOne) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout(), 0);
  builder.AddBolt("a", MakeBolt(), 0).ShuffleGrouping("src");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  for (const auto& c : spec->components) {
    EXPECT_EQ(c.parallelism, 1u);
  }
}

TEST(TopologyBuilderTest, MultiStreamSubscriptionsAllowed) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("compute", MakeBolt()).ShuffleGrouping("src");
  builder.AddBolt("store", MakeBolt())
      .FieldsGrouping("compute", "user_vec", {"user"})
      .FieldsGrouping("compute", "video_vec", {"video"});
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  const int store_index = spec->IndexOf("store");
  ASSERT_GE(store_index, 0);
  EXPECT_EQ(spec->components[static_cast<std::size_t>(store_index)]
                .inputs.size(),
            2u);
}

TEST(TopologyBuilderTest, DiamondTopologyBuilds) {
  TopologyBuilder builder;
  builder.AddSpout("src", MakeSpout());
  builder.AddBolt("left", MakeBolt()).ShuffleGrouping("src");
  builder.AddBolt("right", MakeBolt()).ShuffleGrouping("src");
  builder.AddBolt("join", MakeBolt())
      .ShuffleGrouping("left")
      .ShuffleGrouping("right");
  auto spec = builder.Build();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->components.size(), 4u);
  EXPECT_LT(spec->IndexOf("left"), spec->IndexOf("join"));
  EXPECT_LT(spec->IndexOf("right"), spec->IndexOf("join"));
}

}  // namespace
}  // namespace rtrec::stream
