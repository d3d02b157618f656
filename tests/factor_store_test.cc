#include "kvstore/factor_store.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>


namespace rtrec {
namespace {

FactorStore::Options SmallOptions() {
  FactorStore::Options o;
  o.num_factors = 8;
  o.init_scale = 0.1;
  o.seed = 5;
  return o;
}

TEST(FactorStoreTest, GetOrInitCreatesDeterministicEntry) {
  FactorStore store(SmallOptions());
  FactorEntry a = store.GetOrInitUser(42);
  EXPECT_EQ(a.vec.size(), 8u);
  EXPECT_EQ(a.bias, 0.0f);
  // Re-fetch returns identical values.
  FactorEntry b = store.GetOrInitUser(42);
  EXPECT_EQ(a.vec, b.vec);
}

TEST(FactorStoreTest, InitializationIsSeedAndIdDependent) {
  FactorStore store(SmallOptions());
  EXPECT_NE(store.GetOrInitUser(1).vec, store.GetOrInitUser(2).vec);
  // User and video streams decorrelated for the same id.
  EXPECT_NE(store.GetOrInitUser(7).vec, store.GetOrInitVideo(7).vec);

  FactorStore::Options other = SmallOptions();
  other.seed = 6;
  FactorStore store2(other);
  EXPECT_NE(store.GetOrInitUser(1).vec, store2.GetOrInitUser(1).vec);
}

TEST(FactorStoreTest, InitializationOrderIndependent) {
  FactorStore a(SmallOptions());
  FactorStore b(SmallOptions());
  a.GetOrInitUser(1);
  a.GetOrInitUser(2);
  b.GetOrInitUser(2);
  b.GetOrInitUser(1);
  EXPECT_EQ(a.GetOrInitUser(1).vec, b.GetOrInitUser(1).vec);
  EXPECT_EQ(a.GetOrInitUser(2).vec, b.GetOrInitUser(2).vec);
}

TEST(FactorStoreTest, InitValuesWithinScale) {
  FactorStore store(SmallOptions());
  for (UserId u = 1; u <= 50; ++u) {
    for (float v : store.GetOrInitUser(u).vec) {
      EXPECT_LE(std::abs(v), 0.1f);
    }
  }
}

TEST(FactorStoreTest, GetWithoutInitIsNotFound) {
  FactorStore store(SmallOptions());
  EXPECT_TRUE(store.GetUser(1).status().IsNotFound());
  EXPECT_TRUE(store.GetVideo(1).status().IsNotFound());
  store.GetOrInitUser(1);
  EXPECT_TRUE(store.GetUser(1).ok());
  EXPECT_TRUE(store.GetVideo(1).status().IsNotFound());
}

TEST(FactorStoreTest, PutOverwritesEntry) {
  FactorStore store(SmallOptions());
  FactorEntry entry;
  entry.vec.assign(8, 1.5f);
  entry.bias = 2.0f;
  store.PutUser(9, entry.vec, entry.bias);
  auto got = store.GetUser(9);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->vec, entry.vec);
  EXPECT_EQ(got->bias, 2.0f);
}

TEST(FactorStoreTest, UpdateAppliesInPlace) {
  FactorStore store(SmallOptions());
  const std::vector<float> initial = store.GetOrInitVideo(3).vec;
  store.PutVideo(3, initial, 7.0f);
  EXPECT_EQ(store.GetVideo(3)->bias, 7.0f);
  EXPECT_EQ(store.GetVideo(3)->vec, initial);
  EXPECT_EQ(store.NumVideos(), 1u);
}

TEST(FactorStoreTest, CountsUsersAndVideos) {
  FactorStore store(SmallOptions());
  EXPECT_EQ(store.NumUsers(), 0u);
  for (UserId u = 1; u <= 10; ++u) store.GetOrInitUser(u);
  for (VideoId v = 1; v <= 5; ++v) store.GetOrInitVideo(v);
  EXPECT_EQ(store.NumUsers(), 10u);
  EXPECT_EQ(store.NumVideos(), 5u);
}

TEST(FactorStoreTest, GlobalMeanTracksObservations) {
  FactorStore store(SmallOptions());
  EXPECT_DOUBLE_EQ(store.GlobalMean(), 0.0);
  store.ObserveRating(1.0);
  store.ObserveRating(0.0);
  EXPECT_DOUBLE_EQ(store.GlobalMean(), 0.5);
  EXPECT_EQ(store.RatingCount(), 2u);
}

TEST(FactorStoreTest, ConcurrentObserveRatingLosesNothing) {
  FactorStore store(SmallOptions());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < 5000; ++i) store.ObserveRating(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.RatingCount(), 40000u);
  EXPECT_DOUBLE_EQ(store.GlobalMean(), 1.0);
}

TEST(FactorStoreTest, ConcurrentUpdatesOnDistinctKeys) {
  FactorStore store(SmallOptions());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 1000; ++i) {
        const auto u = static_cast<UserId>(t * 10000 + i);
        store.PutUser(u, store.GetOrInitUser(u).vec, 1.0f);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.NumUsers(), 8000u);
}

TEST(FactorStoreTest, ConcurrentPutAndBufferReadsSeeWholeVectors) {
  // Writers overwrite one video's payload in place while readers
  // dequantize it into their own buffers. Every write stores a vector
  // whose elements all equal its bias, so a read mixing two writes (a
  // torn payload, or a bias from one write and floats from another)
  // shows up as a mismatch. Run under TSan to also catch the race itself.
  FactorStore store(SmallOptions());
  const VideoId v = 7;
  store.PutVideo(v, std::vector<float>(8, 0.0f), 0.0f);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&store, &stop, t] {
      for (int i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        const float value = static_cast<float>(t * 1000000 + i % 1000000);
        store.PutVideo(v, std::vector<float>(8, value), value);
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<int> torn{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &torn] {
      std::array<float, 8> buffer{};
      for (int i = 0; i < 20000; ++i) {
        const float bias = store.GetOrInitVideo(v, buffer);
        for (const float x : buffer) {
          if (x != bias) torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(FactorStoreTest, InPlaceOverwriteReadsBackExactly) {
  // Multiples of 2^-7 with |x| < 1 are exact at both precisions.
  std::vector<float> first(8);
  std::vector<float> second(8);
  for (int k = 0; k < 8; ++k) {
    first[static_cast<std::size_t>(k)] = static_cast<float>(k - 3) / 64.0f;
    second[static_cast<std::size_t>(k)] =
        static_cast<float>(k % 2 == 0 ? 127 - k : -5 * k) / 128.0f;
  }
  for (const FactorPrecision precision :
       {FactorPrecision::kFloat32, FactorPrecision::kFloat16}) {
    FactorStore::Options options = SmallOptions();
    options.precision = precision;
    FactorStore store(options);
    store.PutUser(4, first, 1.5f);
    store.PutVideo(4, first, 1.5f);
    store.PutUser(4, second, -2.0f);  // Overwrite the stored payloads.
    store.PutVideo(4, second, -2.0f);
    SCOPED_TRACE(FactorPrecisionToString(precision));
    EXPECT_EQ(store.GetUser(4)->vec, second);
    EXPECT_EQ(store.GetUser(4)->bias, -2.0f);
    EXPECT_EQ(store.GetVideo(4)->vec, second);
    EXPECT_EQ(store.GetVideo(4)->bias, -2.0f);
    EXPECT_EQ(store.NumUsers(), 1u);
    EXPECT_EQ(store.NumVideos(), 1u);
  }
}

TEST(FactorStoreTest, BufferReadMatchesGetOrInitVideo) {
  for (const FactorPrecision precision :
       {FactorPrecision::kFloat32, FactorPrecision::kFloat16}) {
    FactorStore::Options options = SmallOptions();
    options.precision = precision;
    FactorStore store(options);
    FactorStore reference(options);
    std::array<float, 8> buffer{};

    // First touch: the buffer read creates the same entry GetOrInitVideo
    // would.
    const float bias = store.GetOrInitVideo(11, buffer);
    const FactorEntry fresh = reference.GetOrInitVideo(11);
    EXPECT_EQ(std::vector<float>(buffer.begin(), buffer.end()), fresh.vec);
    EXPECT_EQ(bias, fresh.bias);
    EXPECT_EQ(store.NumVideos(), 1u);

    // Existing id, after a write.
    const std::vector<float> written = {0.5f, -0.25f, 0.125f, 1.0f,
                                        -1.0f, 0.0f,  0.75f,  -0.5f};
    store.PutVideo(11, written, 3.0f);
    EXPECT_EQ(store.GetOrInitVideo(11, buffer), 3.0f);
    EXPECT_EQ(std::vector<float>(buffer.begin(), buffer.end()),
              store.GetOrInitVideo(11).vec);
  }
}

TEST(FactorStoreTest, GetVideosBatchMatchesSingleGets) {
  FactorStore store(SmallOptions());
  for (VideoId v = 1; v <= 30; v += 2) store.GetOrInitVideo(v);
  std::vector<VideoId> ids;
  for (VideoId v = 1; v <= 40; ++v) ids.push_back(v);  // Hits and misses.
  std::vector<FactorStore::VideoBatchEntry> batch = store.GetVideos(ids);
  ASSERT_EQ(batch.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    StatusOr<FactorEntry> single = store.GetVideo(ids[i]);
    ASSERT_EQ(batch[i].found, single.ok()) << "video " << ids[i];
    if (single.ok()) {
      EXPECT_EQ(batch[i].entry.vec, single->vec);
    }
  }
  EXPECT_TRUE(store.GetVideos({}).empty());
}

TEST(FactorStoreTest, MultiGetMetricsRegistered) {
  MetricsRegistry registry;
  FactorStore::Options options = SmallOptions();
  options.metrics = &registry;
  FactorStore store(options);
  for (VideoId v = 1; v <= 10; ++v) store.GetOrInitVideo(v);
  std::vector<VideoId> ids = {1, 2, 3, 99};
  (void)store.GetVideos(ids);
  EXPECT_EQ(registry.GetCounter("kvstore.multiget.calls")->value(), 1);
  EXPECT_EQ(registry.GetCounter("kvstore.multiget.keys")->value(), 4);
  EXPECT_EQ(registry.GetCounter("kvstore.multiget.hits")->value(), 3);
  EXPECT_GT(registry.GetCounter("kvstore.multiget.shard_batches")->value(),
            0);
}

TEST(FactorStoreTest, GlobalMeanNeverTearsUnderConcurrentWrites) {
  // Regression for the torn sum/count pair: an older implementation read
  // the rating sum and count as two independent relaxed loads, so a
  // reader racing a writer could pair a new sum with an old count. With
  // every observed rating equal to 5.0 the true mean is always exactly
  // 5.0; any other value means a reader saw a mean no writer published.
  // Run under TSan (build-tsan) to also catch the ordering bugs.
  FactorStore store(SmallOptions());
  store.ObserveRating(5.0);  // Readers never see the empty store.
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) store.ObserveRating(5.0);
  });
  std::thread writer2([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) store.ObserveRating(5.0);
  });
  for (int i = 0; i < 20000; ++i) {
    ASSERT_DOUBLE_EQ(store.GlobalMean(), 5.0) << "torn read at i=" << i;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  writer2.join();
  EXPECT_GE(store.RatingCount(), 1u);
}

TEST(FactorStoreTest, ForEachVideoPackedVisitsAll) {
  FactorStore store(SmallOptions());
  for (VideoId v = 1; v <= 20; ++v) store.GetOrInitVideo(v);
  std::size_t visited = 0;
  store.ForEachVideoPacked(
      [&visited](VideoId, const FactorStore::PackedView& view) {
        EXPECT_EQ(view.size, 8u * sizeof(float));  // float32 payload.
        ++visited;
      });
  EXPECT_EQ(visited, 20u);
}

}  // namespace
}  // namespace rtrec
