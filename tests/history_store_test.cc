#include "kvstore/history_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace rtrec {
namespace {

HistoryStore::Options SmallOptions(std::size_t cap = 4) {
  HistoryStore::Options o;
  o.max_entries_per_user = cap;
  return o;
}

TEST(HistoryStoreTest, AppendAndGetNewestFirst) {
  HistoryStore store(SmallOptions());
  store.Append(1, {10, 1.0, 100});
  store.Append(1, {20, 2.0, 200});
  const auto history = store.Get(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].video, 20u);  // Newest first.
  EXPECT_EQ(history[1].video, 10u);
}

TEST(HistoryStoreTest, UnknownUserHasEmptyHistory) {
  HistoryStore store(SmallOptions());
  EXPECT_TRUE(store.Get(99).empty());
}

TEST(HistoryStoreTest, EvictsOldestBeyondCapacity) {
  HistoryStore store(SmallOptions(3));
  for (VideoId v = 1; v <= 5; ++v) {
    store.Append(1, {v, 1.0, static_cast<Timestamp>(v)});
  }
  const auto history = store.Get(1);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].video, 5u);
  EXPECT_EQ(history[2].video, 3u);  // 1 and 2 evicted.
}

TEST(HistoryStoreTest, DuplicateVideoRefreshesInPlace) {
  HistoryStore store(SmallOptions());
  store.Append(1, {10, 1.0, 100});
  store.Append(1, {20, 1.0, 200});
  store.Append(1, {10, 3.0, 300});  // Re-watch.
  const auto history = store.Get(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].video, 10u);  // Moved to most recent.
  EXPECT_DOUBLE_EQ(history[0].weight, 3.0);
  EXPECT_EQ(history[0].time, 300);
}

TEST(HistoryStoreTest, GetRecentLimitsResults) {
  HistoryStore store(SmallOptions(10));
  for (VideoId v = 1; v <= 8; ++v) {
    store.Append(1, {v, 1.0, static_cast<Timestamp>(v)});
  }
  const auto recent = store.GetRecent(1, 3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].video, 8u);
  EXPECT_EQ(recent[2].video, 6u);
}

TEST(HistoryStoreTest, ReadRecentThenAppendEqualsGetRecentThenAppend) {
  // One scripted action stream through both paths: GetRecent (minus the
  // action's own video) followed by Append, and the combined call.
  struct Step {
    UserId user;
    VideoId video;
    std::size_t limit;  // 0: below min_confidence, no partners read.
    bool append;        // False: zero confidence, not history.
  };
  const std::vector<Step> steps = {
      {1, 10, 3, true},  {1, 20, 3, true},  {1, 30, 3, true},
      {1, 40, 3, true},  // Limit: only the 3 newest are read.
      {1, 50, 3, true},  // Bound 4: 10 is evicted.
      {1, 30, 3, true},  // Duplicate refresh; 30 itself is skipped.
      {1, 60, 0, true},  // Below min_confidence: appended, no read.
      {1, 70, 2, false},  // Read, but not history.
      {1, 60, 10, true},  // Skip the newest entry; limit above the size.
      {2, 10, 3, true},  // Unknown user: nothing to read.
      {2, 10, 3, true},  // Only entry is the action's own video.
  };
  HistoryStore reference(SmallOptions(4));
  HistoryStore combined(SmallOptions(4));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const HistoryEntry entry{step.video, 1.0, static_cast<Timestamp>(i)};
    std::vector<std::int64_t> want;
    for (const HistoryEntry& e : reference.GetRecent(step.user, step.limit)) {
      if (e.video != step.video) {
        want.push_back(static_cast<std::int64_t>(e.video));
      }
    }
    if (step.append) reference.Append(step.user, entry);

    std::vector<std::int64_t> got = {-1};  // Appended to, not replaced.
    combined.ReadRecentThenAppend(step.user, step.limit, entry, step.append,
                                  got);
    want.insert(want.begin(), -1);
    EXPECT_EQ(got, want) << "step " << i;
    const auto ref_history = reference.Get(step.user);
    const auto got_history = combined.Get(step.user);
    ASSERT_EQ(got_history.size(), ref_history.size()) << "step " << i;
    for (std::size_t k = 0; k < ref_history.size(); ++k) {
      EXPECT_EQ(got_history[k].video, ref_history[k].video);
      EXPECT_EQ(got_history[k].time, ref_history[k].time);
    }
  }
  // The script did reach the interesting states.
  EXPECT_EQ(combined.Get(1).size(), 4u);
  EXPECT_EQ(combined.Get(1)[0].video, 60u);
}

TEST(HistoryStoreTest, UsersAreIndependent) {
  HistoryStore store(SmallOptions());
  store.Append(1, {10, 1.0, 100});
  store.Append(2, {20, 1.0, 100});
  EXPECT_EQ(store.Get(1).size(), 1u);
  EXPECT_EQ(store.Get(2).size(), 1u);
  EXPECT_EQ(store.Get(1)[0].video, 10u);
  EXPECT_EQ(store.NumUsers(), 2u);
}

TEST(HistoryStoreTest, EraseDropsUser) {
  HistoryStore store(SmallOptions());
  store.Append(1, {10, 1.0, 100});
  store.Erase(1);
  EXPECT_TRUE(store.Get(1).empty());
  EXPECT_EQ(store.NumUsers(), 0u);
}

TEST(HistoryStoreTest, ConcurrentAppendsRespectBound) {
  HistoryStore store(SmallOptions(16));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 1000; ++i) {
        store.Append(static_cast<UserId>(t % 4),
                     {static_cast<VideoId>(t * 10000 + i), 1.0, i});
      }
    });
  }
  for (auto& th : threads) th.join();
  for (UserId u = 0; u < 4; ++u) {
    EXPECT_LE(store.Get(u).size(), 16u);
  }
}

}  // namespace
}  // namespace rtrec
