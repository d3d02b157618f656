#include "kvstore/factor_store.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/types.h"

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

/// A vector of `f` floats every one of which is `value`, so a torn read
/// (halves of two writes) shows as a row that is not uniform.
std::vector<float> Uniform(std::size_t f, float value) {
  return std::vector<float>(f, value);
}

/// GetVideosInto for `ids` into fresh buffers; the found flags as bytes.
struct BatchRead {
  std::vector<float> rows;
  std::vector<float> biases;
  std::unique_ptr<bool[]> found;
  std::size_t hits = 0;
};
BatchRead ReadBatch(const FactorStore& store, const std::vector<VideoId>& ids) {
  BatchRead out;
  const std::size_t f = static_cast<std::size_t>(store.num_factors());
  out.rows.assign(ids.size() * f, -1.0f);
  out.biases.assign(ids.size(), -1.0f);
  out.found = std::make_unique<bool[]>(ids.size());
  out.hits = store.GetVideosInto(ids, out.rows, out.biases,
                                 {out.found.get(), ids.size()});
  return out;
}

TEST(FlatFactorTableTest, InterleavedPutGetMatchesMapThroughRehashes) {
  // 6,000 ids over 16 stripes: each stripe's table grows 16 → 32 → … →
  // 512 slots, rehashing five times, while puts, overwrites and reads
  // interleave. Every read must match a std::map of the last writes.
  FactorStore store(SmallOptions());
  std::map<VideoId, std::pair<float, float>> reference;  // id → (value, bias)
  Rng rng(77);
  std::vector<VideoId> pool;
  for (int i = 0; i < 6000; ++i) pool.push_back(rng.NextUint64());
  for (int step = 0; step < 20000; ++step) {
    const VideoId id =
        pool[rng.NextUint64(std::min<std::size_t>(pool.size(), 300 + step / 3))];
    if (rng.NextUint64(3) != 0) {
      const float value = static_cast<float>(step);
      store.PutVideo(id, Uniform(8, value), -value);
      reference[id] = {value, -value};
    }
    const VideoId probe = pool[rng.NextUint64(pool.size())];
    auto got = store.GetVideo(probe);
    auto want = reference.find(probe);
    ASSERT_EQ(got.ok(), want != reference.end()) << "step " << step;
    if (got.ok()) {
      EXPECT_EQ(got->vec, Uniform(8, want->second.first));
      EXPECT_EQ(got->bias, want->second.second);
    }
  }
  EXPECT_EQ(store.NumVideos(), reference.size());
  EXPECT_EQ(store.NumUsers(), 0u);

  // One batch over every pool id (absent ones included) agrees too.
  const BatchRead batch = ReadBatch(store, pool);
  EXPECT_EQ(batch.hits, reference.size());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    auto want = reference.find(pool[k]);
    ASSERT_EQ(batch.found[k], want != reference.end()) << k;
    if (!batch.found[k]) {
      EXPECT_EQ(batch.rows[k * 8], -1.0f);  // Left as it was.
      EXPECT_EQ(batch.biases[k], -1.0f);
      continue;
    }
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(batch.rows[k * 8 + j], want->second.first);
    }
    EXPECT_EQ(batch.biases[k], want->second.second);
  }

  std::size_t visited = 0;
  store.ForEachVideoPacked([&](VideoId id, const FactorStore::PackedView& v) {
    ++visited;
    auto want = reference.find(id);
    ASSERT_NE(want, reference.end());
    EXPECT_EQ(v.bias, want->second.second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatFactorTableTest, ExtremeIdsAreStoredAndFound) {
  // No id is reserved as an empty marker: 0 and UINT64_MAX are ids like
  // any other, in both id spaces.
  FactorStore store(SmallOptions());
  const VideoId max_id = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(store.GetVideo(0).ok());
  EXPECT_FALSE(store.GetUser(max_id).ok());
  store.PutVideo(0, Uniform(8, 1.0f), 0.5f);
  store.PutVideo(max_id, Uniform(8, 2.0f), 1.5f);
  store.PutUser(0, Uniform(8, 3.0f), 2.5f);
  store.PutUser(max_id, Uniform(8, 4.0f), 3.5f);
  EXPECT_EQ(store.NumVideos(), 2u);
  EXPECT_EQ(store.NumUsers(), 2u);
  EXPECT_EQ(store.GetVideo(0)->vec, Uniform(8, 1.0f));
  EXPECT_EQ(store.GetVideo(max_id)->bias, 1.5f);
  EXPECT_EQ(store.GetUser(0)->vec, Uniform(8, 3.0f));
  EXPECT_EQ(store.GetUser(max_id)->bias, 3.5f);

  std::vector<float> row(8);
  float bias = 0.0f;
  ASSERT_TRUE(store.GetUserInto(max_id, row, bias));
  EXPECT_EQ(row, Uniform(8, 4.0f));
  EXPECT_EQ(bias, 3.5f);
  EXPECT_FALSE(store.GetUserInto(1, row, bias));

  const BatchRead batch = ReadBatch(store, {max_id, 1, 0});
  EXPECT_EQ(batch.hits, 2u);
  EXPECT_TRUE(batch.found[0]);
  EXPECT_FALSE(batch.found[1]);
  EXPECT_TRUE(batch.found[2]);
  EXPECT_EQ(batch.rows[0], 2.0f);
  EXPECT_EQ(batch.rows[16], 1.0f);
  EXPECT_EQ(batch.biases[0], 1.5f);
  EXPECT_EQ(batch.biases[2], 0.5f);
}

TEST(FlatFactorTableTest, ApproxFactorBytesStaysExactAcrossGrowth) {
  // One record per stored entry, whatever the table's load: the figure
  // counts entries, not slots, at every size the tables pass through.
  for (const FactorPrecision precision :
       {FactorPrecision::kFloat32, FactorPrecision::kFloat16}) {
    FactorStore::Options options;
    options.num_factors = 32;
    options.precision = precision;
    FactorStore store(options);
    const std::size_t record =
        precision == FactorPrecision::kFloat32 ? 144u : 80u;
    EXPECT_EQ(store.BytesPerEntry(), record);
    for (UserId id = 1; id <= 3000; ++id) {
      store.GetOrInitUser(id);
      if (id % 3 == 0) store.GetOrInitVideo(id);
      if (id % 250 == 0) {
        EXPECT_EQ(store.ApproxFactorBytes(), (id + id / 3) * record) << id;
      }
    }
  }
}

TEST(FlatFactorTableTest, ConcurrentPutAndBatchReadsOnOneStripe) {
  // Every id hashes to stripe 0, so writers (overwrites and inserts that
  // rehash the stripe) and batch readers all meet on one lock. A reader
  // must only ever see whole records: a uniform row whose bias matches.
  std::vector<VideoId> ids;
  for (VideoId id = 0; ids.size() < 400; ++id) {
    if ((MixHash64(id) & (FactorStore::kStripes - 1)) == 0) ids.push_back(id);
  }
  FactorStore store(SmallOptions());
  const std::vector<VideoId> seeded(ids.begin(), ids.begin() + 20);
  for (VideoId id : seeded) store.PutVideo(id, Uniform(8, 0.0f), 0.0f);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> missing{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const BatchRead batch = ReadBatch(store, ids);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (!batch.found[k]) {
            if (k < seeded.size()) missing.fetch_add(1);
            continue;
          }
          const float value = batch.rows[k * 8];
          for (std::size_t j = 1; j < 8; ++j) {
            if (batch.rows[k * 8 + j] != value) torn.fetch_add(1);
          }
          if (batch.biases[k] != value) torn.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 1; round <= 200; ++round) {
      const float value = static_cast<float>(round);
      // Overwrite the seeded ids, then insert two more (growing, and so
      // rehashing, the stripe as readers probe it).
      for (VideoId id : seeded) store.PutVideo(id, Uniform(8, value), value);
      for (int k = 0; k < 2; ++k) {
        const VideoId id = ids[seeded.size() + (2 * round + k) % 380];
        store.PutVideo(id, Uniform(8, value), value);
      }
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(missing.load(), 0);
  EXPECT_EQ(store.NumVideos(), 400u);
}

}  // namespace
}  // namespace rtrec
