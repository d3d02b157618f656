#include "common/flat_id_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace rtrec {
namespace {

TEST(FlatIdMapTest, InsertFindEraseMatchUnorderedMap) {
  // Random inserts and backward-shift erases at up to the full key bound,
  // from a small id pool so probe runs collide and wrap; every id of the
  // pool is checked against a reference after each step.
  FlatIdMap map;
  map.Reset(256);
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(11);
  std::vector<std::uint64_t> pool;
  for (int i = 0; i < 400; ++i) pool.push_back(rng.NextUint64());
  pool[0] = 0;
  pool[1] = std::numeric_limits<std::uint64_t>::max();
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = pool[rng.NextUint64(pool.size())];
    auto it = reference.find(id);
    if (it != reference.end() && rng.NextUint64(2) == 0) {
      map.Erase(id);
      reference.erase(it);
    } else if (it != reference.end()) {
      ++map.FindOrInsert(id);
      ++it->second;
    } else if (reference.size() < 256) {
      std::uint32_t& value = map.FindOrInsert(id);
      EXPECT_EQ(value, 0u);
      value = 1;
      reference[id] = 1;
    }
    ASSERT_EQ(map.size(), reference.size());
    if (step % 97 != 0) continue;
    for (std::uint64_t probe : pool) {
      const std::uint32_t* got = map.Find(probe);
      auto want = reference.find(probe);
      ASSERT_EQ(got != nullptr, want != reference.end()) << step;
      if (got != nullptr) {
        EXPECT_EQ(*got, want->second);
      }
    }
  }
}

TEST(FlatIdMapTest, ResetEmptiesAndResizes) {
  FlatIdMap map;
  EXPECT_EQ(map.Find(7), nullptr);  // Never reset: empty.
  map.Reset(4);
  map.FindOrInsert(7) = 3;
  ASSERT_NE(map.Find(7), nullptr);
  map.Reset(1000);  // Grows; the old key is gone.
  EXPECT_EQ(map.Find(7), nullptr);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    map.FindOrInsert(id) = static_cast<std::uint32_t>(id + 1);
  }
  EXPECT_EQ(map.size(), 1000u);
  map.Reset(2);  // Shrinks its use of the slots it keeps.
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t id = 0; id < 1000; ++id) EXPECT_EQ(map.Find(id), nullptr);
}

}  // namespace
}  // namespace rtrec
