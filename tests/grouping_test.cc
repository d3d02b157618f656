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
  std::vector<std::size_t> seen;
  for (int i = 0; i < 6; ++i) seen.push_back(router.Route(KeyTuple(i)));
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(GroupingRouterTest, FieldsGroupingIsDeterministicPerKey) {
  GroupingRouter router(Grouping::Fields({"key"}), 4);
  for (std::int64_t key = 0; key < 50; ++key) {
    // Other fields irrelevant.
    EXPECT_EQ(router.Route(KeyTuple(key, 1)), router.Route(KeyTuple(key, 2)))
        << "key " << key;
  }
}

TEST(GroupingRouterTest, FieldsGroupingIsStableAcrossRouters) {
  GroupingRouter a(Grouping::Fields({"key"}), 4);
  GroupingRouter b(Grouping::Fields({"key"}), 4);
  for (std::int64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(a.Route(KeyTuple(key)), b.Route(KeyTuple(key)));
  }
}

TEST(GroupingRouterTest, FieldsGroupingSpreadsKeys) {
  GroupingRouter router(Grouping::Fields({"key"}), 4);
  std::set<std::size_t> used;
  for (std::int64_t key = 0; key < 200; ++key) {
    used.insert(router.Route(KeyTuple(key)));
  }
  EXPECT_EQ(used.size(), 4u);  // All tasks receive traffic.
}

TEST(GroupingRouterTest, MultiFieldKeysCombine) {
  GroupingRouter router(Grouping::Fields({"key", "other"}), 8);
  const std::size_t first = router.Route(KeyTuple(1, 2));
  EXPECT_EQ(router.Route(KeyTuple(1, 2)), first);
  // At least one differing pair lands elsewhere over many keys.
  bool any_differs = false;
  for (std::int64_t other = 0; other < 32 && !any_differs; ++other) {
    if (router.Route(KeyTuple(1, other)) != first) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(GroupingRouterTest, MissingKeyFieldRoutesStably) {
  // Tuple lacking the grouping field must not crash and must route
  // consistently.
  GroupingRouter router(Grouping::Fields({"absent"}), 4);
  const std::size_t first = router.Route(KeyTuple(1));
  EXPECT_LT(first, 4u);
  EXPECT_EQ(router.Route(KeyTuple(2)), first);
}

TEST(GroupingRouterTest, CachedKeyIndexFollowsTheSchema) {
  // The same "key" field sits at different positions in these schemas,
  // and one lacks it; a router alternating between them must route each
  // tuple exactly as a fresh router would.
  static const Schema* swapped = new Schema{"other", "key"};
  static const Schema* keyless = new Schema{"other"};
  GroupingRouter shared(Grouping::Fields({"key"}), 8);
  for (std::int64_t key = 0; key < 64; ++key) {
    const std::int64_t other = 1000 + key * 7;
    for (const Tuple& tuple :
         {KeyTuple(key, other), Tuple(swapped, other, key),
          Tuple(keyless, other)}) {
      GroupingRouter fresh(Grouping::Fields({"key"}), 8);
      EXPECT_EQ(shared.Route(tuple), fresh.Route(tuple)) << tuple.ToString();
    }
    // Equal keys route together whichever position holds them.
    EXPECT_EQ(shared.Route(KeyTuple(key, other)),
              shared.Route(Tuple(swapped, other + 1, key)))
        << "key " << key;
  }
}

TEST(GroupingRouterTest, SingleTaskAlwaysZero) {
  for (const Grouping& g : {Grouping::Shuffle(), Grouping::Fields({"key"})}) {
    GroupingRouter router(g, 1);
    EXPECT_EQ(router.Route(KeyTuple(123)), 0u);
  }
}

}  // namespace
}  // namespace rtrec::stream
