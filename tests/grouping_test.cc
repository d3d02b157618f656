#include "stream/grouping.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace rtrec::stream {
namespace {

const Schema* KeySchema() {
  static const Schema* schema = new Schema{"key", "other"};
  return schema;
}

Tuple KeyTuple(std::int64_t key, std::int64_t other = 0) {
  return Tuple(KeySchema(), key, other);
}

TEST(GroupingRouterTest, ShuffleRoundRobins) {
  GroupingRouter router(Grouping::Shuffle(), 3);
  std::vector<std::size_t> out;
  std::vector<std::size_t> seen;
  for (int i = 0; i < 6; ++i) {
    router.Route(KeyTuple(i), out);
    ASSERT_EQ(out.size(), 1u);
    seen.push_back(out[0]);
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(GroupingRouterTest, FieldsGroupingIsDeterministicPerKey) {
  GroupingRouter router(Grouping::Fields({"key"}), 4);
  std::vector<std::size_t> out1, out2;
  for (std::int64_t key = 0; key < 50; ++key) {
    router.Route(KeyTuple(key, 1), out1);
    router.Route(KeyTuple(key, 2), out2);  // Other fields irrelevant.
    EXPECT_EQ(out1, out2) << "key " << key;
  }
}

TEST(GroupingRouterTest, FieldsGroupingIsStableAcrossRouters) {
  GroupingRouter a(Grouping::Fields({"key"}), 4);
  GroupingRouter b(Grouping::Fields({"key"}), 4);
  std::vector<std::size_t> out_a, out_b;
  for (std::int64_t key = 0; key < 50; ++key) {
    a.Route(KeyTuple(key), out_a);
    b.Route(KeyTuple(key), out_b);
    EXPECT_EQ(out_a, out_b);
  }
}

TEST(GroupingRouterTest, FieldsGroupingSpreadsKeys) {
  GroupingRouter router(Grouping::Fields({"key"}), 4);
  std::set<std::size_t> used;
  std::vector<std::size_t> out;
  for (std::int64_t key = 0; key < 200; ++key) {
    router.Route(KeyTuple(key), out);
    used.insert(out[0]);
  }
  EXPECT_EQ(used.size(), 4u);  // All tasks receive traffic.
}

TEST(GroupingRouterTest, MultiFieldKeysCombine) {
  GroupingRouter router(Grouping::Fields({"key", "other"}), 8);
  std::vector<std::size_t> out1, out2;
  router.Route(KeyTuple(1, 2), out1);
  router.Route(KeyTuple(1, 2), out2);
  EXPECT_EQ(out1, out2);
  // At least one differing pair lands elsewhere over many keys.
  bool any_differs = false;
  for (std::int64_t other = 0; other < 32 && !any_differs; ++other) {
    router.Route(KeyTuple(1, other), out2);
    if (out2 != out1) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(GroupingRouterTest, MissingKeyFieldRoutesStably) {
  // Tuple lacking the grouping field must not crash and must route
  // consistently.
  GroupingRouter router(Grouping::Fields({"absent"}), 4);
  std::vector<std::size_t> out1, out2;
  router.Route(KeyTuple(1), out1);
  router.Route(KeyTuple(2), out2);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1, out2);
}

TEST(GroupingRouterTest, CachedKeyIndexFollowsTheSchema) {
  // The same "key" field sits at different positions in these schemas,
  // and one lacks it; a router alternating between them must route each
  // tuple exactly as a fresh router would.
  static const Schema* swapped = new Schema{"other", "key"};
  static const Schema* keyless = new Schema{"other"};
  GroupingRouter shared(Grouping::Fields({"key"}), 8);
  std::vector<std::size_t> out, fresh_out;
  for (std::int64_t key = 0; key < 64; ++key) {
    const std::int64_t other = 1000 + key * 7;
    for (const Tuple& tuple :
         {KeyTuple(key, other), Tuple(swapped, other, key),
          Tuple(keyless, other)}) {
      GroupingRouter fresh(Grouping::Fields({"key"}), 8);
      shared.Route(tuple, out);
      fresh.Route(tuple, fresh_out);
      EXPECT_EQ(out, fresh_out) << tuple.ToString();
    }
    // Equal keys route together whichever position holds them.
    std::vector<std::size_t> a, b;
    shared.Route(KeyTuple(key, other), a);
    shared.Route(Tuple(swapped, other + 1, key), b);
    EXPECT_EQ(a, b) << "key " << key;
  }
}

TEST(GroupingRouterTest, GlobalAlwaysTaskZero) {
  GroupingRouter router(Grouping::Global(), 5);
  std::vector<std::size_t> out;
  for (int i = 0; i < 10; ++i) {
    router.Route(KeyTuple(i), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
  }
}

TEST(GroupingRouterTest, AllBroadcastsToEveryTask) {
  GroupingRouter router(Grouping::All(), 3);
  std::vector<std::size_t> out;
  router.Route(KeyTuple(1), out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GroupingRouterTest, SingleTaskAlwaysZero) {
  for (const Grouping& g :
       {Grouping::Shuffle(), Grouping::Fields({"key"}), Grouping::Global()}) {
    GroupingRouter router(g, 1);
    std::vector<std::size_t> out;
    router.Route(KeyTuple(123), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
  }
}

}  // namespace
}  // namespace rtrec::stream
