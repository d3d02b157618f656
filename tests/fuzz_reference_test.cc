/// Randomized differential tests: each concurrent/optimized store is
/// driven with a random operation stream and checked against a trivially
/// correct reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/random.h"
#include "common/top_k.h"
#include "kvstore/sim_table_store.h"

namespace rtrec {
namespace {

/// Brute-force reference for the similar-video table: remembers every
/// directed pair's latest (sim, time) with unbounded capacity; query
/// sorts by decayed similarity. TopK eviction makes the real store lossy,
/// so the check is one-sided: every entry the store returns must match
/// the reference value, and the store's ranking must be sorted.
TEST(SimTableFuzzTest, EntriesMatchReferenceAndStayRanked) {
  SimTableStore::Options options;
  options.top_k = 8;
  options.xi_millis = 10000.0;
  SimTableStore table(options);

  std::map<std::pair<VideoId, VideoId>, std::pair<double, Timestamp>>
      reference;
  Rng rng(99);
  Timestamp now = 0;

  for (int op = 0; op < 5000; ++op) {
    now += static_cast<Timestamp>(rng.NextUint64(200));
    const VideoId a = 1 + rng.NextUint64(30);
    const VideoId b = 1 + rng.NextUint64(30);
    const double sim = rng.NextDouble(0.05, 1.0);
    table.Update(a, b, sim, now);
    if (a != b) {
      reference[{a, b}] = {sim, now};
      reference[{b, a}] = {sim, now};
    }
  }

  for (VideoId v = 1; v <= 30; ++v) {
    const auto results = table.Query(v, now, 100);
    EXPECT_LE(results.size(), 8u);
    double prev = 1e18;
    for (const SimilarVideo& r : results) {
      EXPECT_LE(r.similarity, prev);  // Ranked descending.
      prev = r.similarity;
      auto it = reference.find({v, r.video});
      ASSERT_NE(it, reference.end())
          << v << "->" << r.video << " not in reference";
      const double expected =
          it->second.first *
          std::exp2(-static_cast<double>(now - it->second.second) / 10000.0);
      EXPECT_NEAR(r.similarity, expected, 1e-9);
    }
  }
}

/// TopK against a full reference map (final scores), exploiting that our
/// workload only *raises* scores so no lossy-eviction ambiguity exists:
/// the retained set must be exactly the reference's K best.
TEST(TopKFuzzTest, MonotoneScoresMatchReferenceExactly) {
  TopK<int> top(12);
  std::map<int, double> reference;
  Rng rng(2024);
  for (int op = 0; op < 5000; ++op) {
    const int key = static_cast<int>(rng.NextUint64(100));
    double& ref_score = reference[key];
    ref_score += rng.NextDouble(0.0, 1.0);  // Monotone non-decreasing.
    top.Upsert(key, ref_score);
  }
  std::vector<std::pair<double, int>> best;
  for (const auto& [key, score] : reference) best.push_back({score, key});
  std::sort(best.rbegin(), best.rend());
  best.resize(12);

  ASSERT_EQ(top.size(), 12u);
  for (const auto& [score, key] : best) {
    const double* found = top.Find(key);
    ASSERT_NE(found, nullptr) << "missing key " << key;
    EXPECT_DOUBLE_EQ(*found, score);
  }
}

}  // namespace
}  // namespace rtrec
