#include "kvstore/sim_table_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

namespace rtrec {
namespace {

SimTableStore::Options SmallOptions(std::size_t k = 4,
                                    double xi = 1000.0) {
  SimTableStore::Options o;
  o.top_k = k;
  o.xi_millis = xi;
  return o;
}

// The first `n` video ids from `from` on that hash to stripe 0, so their
// lists share one stripe's arena.
std::vector<VideoId> OneStripeIds(std::size_t n, VideoId from = 1) {
  std::vector<VideoId> ids;
  for (VideoId v = from; ids.size() < n; ++v) {
    if ((MixHash64(v) & (SimTableStore::kStripes - 1)) == 0) ids.push_back(v);
  }
  return ids;
}

TEST(SimTableStoreTest, UpdateIsBidirectional) {
  SimTableStore table(SmallOptions());
  table.Update(1, 2, 0.8, 0);
  const auto from_1 = table.Query(1, 0, 10);
  const auto from_2 = table.Query(2, 0, 10);
  ASSERT_EQ(from_1.size(), 1u);
  ASSERT_EQ(from_2.size(), 1u);
  EXPECT_EQ(from_1[0].video, 2u);
  EXPECT_EQ(from_2[0].video, 1u);
  EXPECT_DOUBLE_EQ(from_1[0].similarity, 0.8);
}

TEST(SimTableStoreTest, SelfPairsIgnored) {
  SimTableStore table(SmallOptions());
  table.Update(1, 1, 0.9, 0);
  EXPECT_TRUE(table.Query(1, 0, 10).empty());
}

TEST(SimTableStoreTest, QueryRanksByDecayedSimilarity) {
  SimTableStore table(SmallOptions());
  table.Update(1, 2, 0.5, 0);
  table.Update(1, 3, 0.9, 0);
  table.Update(1, 4, 0.7, 0);
  const auto similar = table.Query(1, 0, 10);
  ASSERT_EQ(similar.size(), 3u);
  EXPECT_EQ(similar[0].video, 3u);
  EXPECT_EQ(similar[1].video, 4u);
  EXPECT_EQ(similar[2].video, 2u);
}

TEST(SimTableStoreTest, DecayHalvesAtXi) {
  SimTableStore table(SmallOptions(4, 1000.0));
  table.Update(1, 2, 0.8, 0);
  EXPECT_NEAR(table.GetDecayedSimilarity(1, 2, 1000), 0.4, 1e-9);
  EXPECT_NEAR(table.GetDecayedSimilarity(1, 2, 2000), 0.2, 1e-9);
  // No decay at or before the update time.
  EXPECT_NEAR(table.GetDecayedSimilarity(1, 2, 0), 0.8, 1e-9);
}

TEST(SimTableStoreTest, UpdateRestartsDecayClock) {
  SimTableStore table(SmallOptions(4, 1000.0));
  table.Update(1, 2, 0.8, 0);
  table.Update(1, 2, 0.8, 5000);  // Fresh action touches the pair.
  EXPECT_NEAR(table.GetDecayedSimilarity(1, 2, 5000), 0.8, 1e-9);
}

TEST(SimTableStoreTest, DecayCanReorderEntries) {
  SimTableStore table(SmallOptions(4, 1000.0));
  table.Update(1, 2, 0.9, 0);     // Strong but old.
  table.Update(1, 3, 0.5, 4000);  // Weaker but fresh.
  const auto similar = table.Query(1, 4000, 10);
  ASSERT_EQ(similar.size(), 2u);
  // 0.9 decayed over 4 half-lives = 0.05625 < 0.5.
  EXPECT_EQ(similar[0].video, 3u);
}

TEST(SimTableStoreTest, CapacityEvictsWeakestDecayed) {
  SimTableStore table(SmallOptions(2, 1000.0));
  table.Update(1, 2, 0.3, 0);
  table.Update(1, 3, 0.5, 0);
  table.Update(1, 4, 0.4, 0);  // Evicts video 2 (weakest).
  const auto similar = table.Query(1, 0, 10);
  ASSERT_EQ(similar.size(), 2u);
  EXPECT_EQ(similar[0].video, 3u);
  EXPECT_EQ(similar[1].video, 4u);
}

TEST(SimTableStoreTest, WeakNewcomerDoesNotEvict) {
  SimTableStore table(SmallOptions(2, 1000.0));
  table.Update(1, 2, 0.3, 0);
  table.Update(1, 3, 0.5, 0);
  table.Update(1, 4, 0.1, 0);
  const auto similar = table.Query(1, 0, 10);
  ASSERT_EQ(similar.size(), 2u);
  EXPECT_EQ(similar[0].video, 3u);
  EXPECT_EQ(similar[1].video, 2u);
}

TEST(SimTableStoreTest, FullyDecayedEntriesArePruned) {
  SimTableStore table(SmallOptions(4, 10.0));  // 10 ms half-life.
  table.Update(1, 2, 0.5, 0);
  // After 1000 half-lives the entry is numerically dead.
  EXPECT_TRUE(table.Query(1, 10000, 10).empty());
  EXPECT_DOUBLE_EQ(table.GetDecayedSimilarity(1, 2, 10000), 0.0);
}

// Whether `to` survived in `from`'s stored list (pruned entries are gone;
// Query would also filter by decay, so read the raw list).
bool ListHolds(const SimTableStore& table, VideoId from, VideoId to) {
  bool found = false;
  table.ForEachList([&](VideoId id, std::span<const SimilarVideo> list) {
    if (id != from) return;
    for (const SimilarVideo& e : list) found = found || e.video == to;
  });
  return found;
}

TEST(SimTableStoreTest, PruneDecisionEqualsExactDecayBelowThreshold) {
  // Updates skip exp2 when a lower bound already shows an entry survives.
  // Whatever the shortcut, the decision must equal the exact rule:
  // prune iff sim · 2^(-age/ξ) < prune_threshold (no decay for age <= 0).
  const double xi = 1000.0;
  const double threshold = SimTableStore::kPruneThreshold;
  const std::vector<Timestamp> ages = {-500, 0,   1,   10,    250,
                                       693,  999, 1000, 5000, 30000};
  std::size_t pruned = 0;
  std::size_t kept = 0;
  for (const Timestamp age : ages) {
    const double at_threshold =
        age > 0 ? threshold / std::exp2(-static_cast<double>(age) / xi)
                : threshold;
    std::vector<double> sims = {-0.5,
                                -1e-12,
                                0.0,
                                threshold / 2,
                                threshold,
                                threshold * (1 + 1e-12),
                                threshold * (1 + 1e-9),
                                2 * threshold,
                                0.01,
                                0.5,
                                1.0};
    // Right at this age's boundary, where only the exact decay decides.
    double boundary = std::nextafter(std::nextafter(at_threshold, 0.0), 0.0);
    for (int k = 0; k < 5; ++k) {
      sims.push_back(boundary);
      boundary = std::nextafter(boundary, 2.0);
    }
    for (const double sim : sims) {
      const Timestamp t0 = 1000000;
      const Timestamp now = t0 + age;
      const double decayed =
          now - t0 > 0
              ? sim * std::exp2(-static_cast<double>(now - t0) / xi)
              : sim;
      const bool want_pruned = decayed < threshold;
      SimTableStore table(SmallOptions(4, xi));
      table.Update(1, 2, sim, t0);
      table.Update(1, 3, 0.5, now);  // Touching list 1 runs the prune.
      EXPECT_EQ(!ListHolds(table, 1, 2), want_pruned)
          << "sim=" << sim << " age=" << age;
      ++(want_pruned ? pruned : kept);
    }
  }
  // The grid straddles the threshold on both sides.
  EXPECT_GT(pruned, 20u);
  EXPECT_GT(kept, 20u);
}

TEST(SimTableStoreTest, QueryLimitTruncates) {
  SimTableStore table(SmallOptions(10, 1000.0));
  for (VideoId v = 2; v <= 8; ++v) {
    table.Update(1, v, 0.1 * static_cast<double>(v), 0);
  }
  EXPECT_EQ(table.Query(1, 0, 3).size(), 3u);
  EXPECT_EQ(table.Query(1, 0, 100).size(), 7u);
}

TEST(SimTableStoreTest, UnknownVideoYieldsEmpty) {
  SimTableStore table(SmallOptions());
  EXPECT_TRUE(table.Query(123, 0, 10).empty());
  EXPECT_DOUBLE_EQ(table.GetDecayedSimilarity(123, 456, 0), 0.0);
}

TEST(SimTableStoreTest, NumVideosCountsNonEmptyLists) {
  SimTableStore table(SmallOptions());
  EXPECT_EQ(table.NumVideos(), 0u);
  table.Update(1, 2, 0.5, 0);
  EXPECT_EQ(table.NumVideos(), 2u);  // Both directions.
  table.Update(3, 4, 0.5, 0);
  EXPECT_EQ(table.NumVideos(), 4u);
}

TEST(SimTableStoreTest, ArenaBacksAllLists) {
  SimTableStore table(SmallOptions(16, 1000.0));
  EXPECT_EQ(table.ArenaBytes(), 0u);
  table.Update(1, 2, 0.5, 0);
  const std::size_t after_small = table.ArenaBytes();
  EXPECT_GT(after_small, 0u);
  // Lists start on the small size class; overflowing it promotes the
  // list to a full top_k slab without losing entries.
  for (VideoId v = 3; v <= 14; ++v) {
    table.Update(1, v, 0.1 * static_cast<double>(v), 0);
  }
  EXPECT_GE(table.ArenaBytes(), after_small);
  const auto similar = table.Query(1, 0, 100);
  EXPECT_EQ(similar.size(), 13u);
  // All original similarities survive the promotion copy.
  EXPECT_DOUBLE_EQ(table.GetDecayedSimilarity(1, 2, 0), 0.5);
  EXPECT_DOUBLE_EQ(table.GetDecayedSimilarity(1, 14, 0), 1.4);
}

TEST(SimTableStoreTest, ArenaRecyclesPromotedSlabs) {
  // Promoting a list frees its small slab back to the arena, so arena
  // growth is bounded by live slabs, not by promotion count: new small
  // lists reuse the freed slabs and the arena does not grow. LoadList
  // writes one directed list, which makes the slab accounting exact.
  // Every list lives in one stripe, so they all share one arena.
  SimTableStore table(SmallOptions(32, 1000.0));
  const std::vector<VideoId> ids = OneStripeIds(128);
  const std::span<const VideoId> first(ids.data(), 64);
  const std::span<const VideoId> second(ids.data() + 64, 64);
  auto entries = [](std::size_t n) {
    std::vector<SimilarVideo> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(SimilarVideo{1000000 + i, 0.5, 0});
    }
    return out;
  };
  // 64 small lists, then promote all of them to full slabs.
  for (const VideoId v : first) table.LoadList(v, entries(1));
  for (const VideoId v : first) table.LoadList(v, entries(12));
  const std::size_t after_promotions = table.ArenaBytes();
  EXPECT_GT(after_promotions, 0u);
  // A second wave of small lists fits entirely in the recycled slabs.
  for (const VideoId v : second) table.LoadList(v, entries(1));
  EXPECT_EQ(table.ArenaBytes(), after_promotions);
}

TEST(SimTableStoreTest, ArenaGrowsWithItsLists) {
  // The chunk rule: a size class's first chunk holds kFirstChunkSlabs
  // slabs and each later chunk as many as the class has carved so far,
  // so chunks follow the lists instead of a fixed 64KB per stripe and
  // class. Both bounds below follow from that rule alone.
  constexpr std::size_t kTopK = 50;
  constexpr std::size_t kSmallSlab =
      SimTableStore::kSmallSlabSlots * sizeof(SimilarVideo);
  constexpr std::size_t kFullSlab = kTopK * sizeof(SimilarVideo);
  auto entries = [](std::size_t n) {
    std::vector<SimilarVideo> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(SimilarVideo{1000000 + i, 0.5, 0});
    }
    return out;
  };

  // One small list per stripe carves one small chunk per stripe.
  SimTableStore sparse(SmallOptions(kTopK, 1000.0));
  const std::size_t stripes = SimTableStore::kStripes;
  std::vector<bool> taken(stripes, false);
  for (VideoId v = 1, lists = 0; lists < stripes; ++v) {
    const std::size_t stripe = MixHash64(v) & (stripes - 1);
    if (taken[stripe]) continue;
    taken[stripe] = true;
    ++lists;
    sparse.LoadList(v, entries(1));
  }
  EXPECT_GT(sparse.ArenaBytes(), 0u);
  EXPECT_LE(sparse.ArenaBytes(),
            stripes * SimTableStore::kFirstChunkSlabs * kSmallSlab);

  // All-full lists in one stripe. Each LoadList passes through one
  // small slab and returns it, so the small class keeps its first
  // chunk. The full class carves a chunk only when its free list is
  // empty, i.e. when list n arrives with n - 1 slabs carved, and then
  // carves at most n - 1 more: at most 2n - 2 slabs. That leaves two
  // full slabs of slack, which cover the small chunk, once 2n - 2
  // reaches the first chunk, n >= kFirstChunkSlabs / 2 + 1.
  static_assert(SimTableStore::kFirstChunkSlabs * kSmallSlab <=
                2 * kFullSlab);
  SimTableStore dense(SmallOptions(kTopK, 1000.0));
  const std::vector<VideoId> dense_ids = OneStripeIds(200);
  for (std::size_t n = 1; n <= dense_ids.size(); ++n) {
    dense.LoadList(dense_ids[n - 1], entries(kTopK));
    if (n < SimTableStore::kFirstChunkSlabs / 2 + 1) continue;
    ASSERT_LE(dense.ArenaBytes(), 2 * n * kFullSlab) << "lists: " << n;
  }
  EXPECT_EQ(dense.Query(dense_ids.back(), 0, kTopK).size(), kTopK);
}

TEST(SimTableStoreTest, ConcurrentGrowthKeepsListsWhole) {
  // Writers grow lists (and so carve arena chunks) under the stripe
  // locks that readers take to query them. Each writer owns an id range
  // and links every video to its next 12 ids, so video v's list holds
  // v-12..v-1 (its first 12 entries) once the writers are done.
  static constexpr int kWriters = 4;
  static constexpr VideoId kPerWriter = 300;
  static constexpr VideoId kSpan = 12;
  static constexpr std::size_t kTopK = 16;
  SimTableStore table(SmallOptions(kTopK, 1000.0));
  std::atomic<int> running{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, &running, w] {
      const VideoId base = static_cast<VideoId>(w + 1) * 10000;
      for (VideoId i = 0; i < kPerWriter; ++i) {
        for (VideoId j = 1; j <= kSpan; ++j) {
          table.Update(base + i, base + i + j, 0.5, 0);
        }
      }
      running.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&table, &running, r] {
      VideoId v = 10000;
      while (running.load() > 0) {
        v = 10000 + (v * 7 + static_cast<VideoId>(r) + 1) % 40000;
        for (const SimilarVideo& s : table.Query(v, 0, 100)) {
          EXPECT_EQ(s.similarity, 0.5);
        }
        EXPECT_LE(table.Query(v, 0, 100).size(), kTopK);
        (void)table.ArenaBytes();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.NumVideos(),
            static_cast<std::size_t>(kWriters) * (kPerWriter + kSpan));
  for (int w = 0; w < kWriters; ++w) {
    const VideoId base = static_cast<VideoId>(w + 1) * 10000;
    for (VideoId v = base + 1; v < base + kPerWriter; ++v) {
      EXPECT_LE(table.Query(v, 0, 100).size(), kTopK);
      ASSERT_EQ(table.GetDecayedSimilarity(v, v - 1, 0), 0.5) << v;
    }
  }
}

TEST(SimTableStoreTest, LoadListRestoresThroughArena) {
  SimTableStore source(SmallOptions(16, 1000.0));
  for (VideoId v = 2; v <= 13; ++v) {
    source.Update(1, v, 0.05 * static_cast<double>(v), 0);
  }
  SimTableStore restored(SmallOptions(16, 1000.0));
  source.ForEachList([&restored](VideoId id,
                                 std::span<const SimilarVideo> entries) {
    restored.LoadList(id, {entries.begin(), entries.end()});
  });
  EXPECT_EQ(restored.NumVideos(), source.NumVideos());
  EXPECT_GT(restored.ArenaBytes(), 0u);
  for (VideoId v = 2; v <= 13; ++v) {
    EXPECT_DOUBLE_EQ(restored.GetDecayedSimilarity(1, v, 0),
                     source.GetDecayedSimilarity(1, v, 0));
  }
}

}  // namespace
}  // namespace rtrec
