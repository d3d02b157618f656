#include "kvstore/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "core/engine.h"

namespace rtrec {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rtrec_ckpt_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  static FactorStore::Options FactorOptions() {
    FactorStore::Options o;
    o.num_factors = 8;
    return o;
  }

  std::filesystem::path path_;
};

TEST_F(CheckpointTest, FactorRoundTrip) {
  FactorStore source(FactorOptions());
  for (UserId u = 1; u <= 20; ++u) {
    source.PutUser(u, source.GetOrInitUser(u).vec,
                   static_cast<float>(u) * 0.1f);
  }
  for (VideoId v = 1; v <= 30; ++v) source.GetOrInitVideo(v);

  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());

  FactorStore restored(FactorOptions());
  ASSERT_TRUE(
      LoadCheckpoint(path_.string(), &restored, nullptr, nullptr).ok());
  EXPECT_EQ(restored.NumUsers(), 20u);
  EXPECT_EQ(restored.NumVideos(), 30u);
  for (UserId u = 1; u <= 20; ++u) {
    auto entry = restored.GetUser(u);
    ASSERT_TRUE(entry.ok());
    EXPECT_FLOAT_EQ(entry->bias, static_cast<float>(u) * 0.1f);
    EXPECT_EQ(entry->vec, source.GetUser(u)->vec);
  }
}

TEST_F(CheckpointTest, SimTableRoundTrip) {
  SimTableStore source;
  source.Update(1, 2, 0.8, 1000);
  source.Update(1, 3, 0.5, 2000);
  source.Update(4, 5, 0.9, 3000);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), nullptr, &source, nullptr).ok());

  SimTableStore restored;
  ASSERT_TRUE(
      LoadCheckpoint(path_.string(), nullptr, &restored, nullptr).ok());
  EXPECT_DOUBLE_EQ(restored.GetDecayedSimilarity(1, 2, 1000), 0.8);
  EXPECT_DOUBLE_EQ(restored.GetDecayedSimilarity(2, 1, 1000), 0.8);
  EXPECT_DOUBLE_EQ(restored.GetDecayedSimilarity(4, 5, 3000), 0.9);
  EXPECT_EQ(restored.NumVideos(), source.NumVideos());
}

TEST_F(CheckpointTest, HistoryRoundTrip) {
  HistoryStore source;
  source.Append(1, {10, 1.5, 100});
  source.Append(1, {11, 2.5, 200});
  source.Append(2, {20, 1.0, 300});
  ASSERT_TRUE(SaveCheckpoint(path_.string(), nullptr, nullptr, &source).ok());

  HistoryStore restored;
  ASSERT_TRUE(
      LoadCheckpoint(path_.string(), nullptr, nullptr, &restored).ok());
  const auto history = restored.Get(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].video, 11u);  // Newest first preserved.
  EXPECT_DOUBLE_EQ(history[0].weight, 2.5);
  EXPECT_EQ(restored.Get(2).size(), 1u);
}

TEST_F(CheckpointTest, FullEngineStateSurvivesRestart) {
  // Train an engine, checkpoint, restore into a fresh engine, and verify
  // the serving behaviour matches — the production restart scenario.
  auto types = [](VideoId) -> VideoType { return 0; };
  RecEngine::Options options;
  options.model.num_factors = 8;
  options.model.eta0 = 0.05;
  RecEngine original(types, options);
  Timestamp t = 0;
  for (int round = 0; round < 30; ++round) {
    for (UserId u = 1; u <= 6; ++u) {
      for (VideoId v : {10, 11, 12}) {
        UserAction a;
        a.user = u;
        a.video = v;
        a.type = ActionType::kPlayTime;
        a.view_fraction = 1.0;
        a.time = (t += 1000);
        original.Observe(a);
      }
    }
  }
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &original.factors(),
                             &original.sim_table(), &original.history())
                  .ok());

  RecEngine restarted(types, options);
  ASSERT_TRUE(LoadCheckpoint(path_.string(), &restarted.factors(),
                             &restarted.sim_table(), &restarted.history())
                  .ok());

  RecRequest request;
  request.user = 99;
  request.seed_videos = {10};
  request.now = t;
  auto before = original.Recommend(request);
  auto after = restarted.Recommend(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

/// The state V3BytesArePinned saves and ParentWrittenV3FixturesLoad
/// expects back, written through the stores' Put paths with no training.
void FillPinnedState(RecEngine& engine) {
  for (UserId u = 1; u <= 12; ++u) {
    std::vector<float> vec(8);
    for (int k = 0; k < 8; ++k) {
      vec[static_cast<std::size_t>(k)] =
          static_cast<float>(static_cast<int>(u) * 3 - k * 5) / 37.0f;
    }
    engine.factors().PutUser(u, vec, static_cast<float>(u) * 0.125f);
  }
  for (VideoId v = 1; v <= 20; ++v) engine.factors().GetOrInitVideo(v);
  for (VideoId v = 1; v <= 10; ++v) {
    engine.sim_table().Update(v, v + 3, 0.05 * static_cast<double>(v),
                              1000 * static_cast<Timestamp>(v));
  }
  for (UserId u = 1; u <= 6; ++u) {
    for (VideoId v = u; v < u + 4; ++v) {
      engine.history().Append(u, {v, 0.5 * static_cast<double>(v),
                                  static_cast<Timestamp>(100 * v)});
    }
  }
}

RecEngine::Options PinnedOptions(FactorPrecision precision) {
  RecEngine::Options options;
  options.model.num_factors = 8;
  options.model.precision = precision;
  return options;
}

TEST_F(CheckpointTest, V3BytesArePinned) {
  // The v3 layout, the factor entries' id order, the sim-table and
  // history stores' iteration order, and the codecs all show up in the
  // saved bytes. The state is written through the stores' Put paths,
  // with no training, so the file depends on nothing but those. A change
  // to any of them changes a length or a section CRC below and breaks
  // every snapshot already on disk.
  //
  // The pins are per section: each section's stored CRC-32 covers its
  // bytes. A CRC-32 of the whole file would not do: every section is
  // followed by its own CRC-32, which leaves the register in a state
  // independent of the section's content, so a whole-file CRC depends
  // only on the section lengths.
  struct Pinned {
    FactorPrecision precision;
    std::uintmax_t size;
    // (length, CRC-32) of the factor, sim-table and history sections.
    std::pair<std::uint64_t, std::uint32_t> sections[3];
  };
  // The factor CRCs are those of the files in tests/data (written when
  // factor entries came out in hash-map order) with each id space's
  // entries sorted by id; the other pins are unchanged.
  const Pinned pins[] = {
      {FactorPrecision::kFloat32,
       3045,
       {{1701, 4087493669u}, {644, 1734104884u}, {656, 1513543312u}}},
      {FactorPrecision::kFloat16,
       2533,
       {{1189, 3712527984u}, {644, 1734104884u}, {656, 1513543312u}}},
  };
  for (const Pinned& pinned : pins) {
    RecEngine engine([](VideoId) -> VideoType { return 0; },
                     PinnedOptions(pinned.precision));
    FillPinnedState(engine);
    ASSERT_TRUE(SaveCheckpoint(path_.string(), &engine.factors(),
                               &engine.sim_table(), &engine.history())
                    .ok());

    std::ifstream in(path_, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    SCOPED_TRACE(FactorPrecisionToString(pinned.precision));
    ASSERT_EQ(bytes.size(), pinned.size);
    // magic(8), then three `u64 len | bytes | u32 crc` frames.
    std::size_t pos = 8;
    for (const auto& [length, crc] : pinned.sections) {
      std::uint64_t len = 0;
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += sizeof(len);
      ASSERT_EQ(len, length);
      EXPECT_EQ(Crc32(bytes.data() + pos, len), crc);
      pos += len + sizeof(std::uint32_t);
    }
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST_F(CheckpointTest, ParentWrittenV3FixturesLoad) {
  // tests/data holds V3BytesArePinned's state as written by the v3 writer
  // that emitted factor entries in hash-map order. Every snapshot of that
  // writer must keep loading bit-exactly.
  for (const FactorPrecision precision :
       {FactorPrecision::kFloat32, FactorPrecision::kFloat16}) {
    SCOPED_TRACE(FactorPrecisionToString(precision));
    const std::string fixture =
        std::string(RTREC_TEST_DATA_DIR) + "/checkpoint_v3_" +
        (precision == FactorPrecision::kFloat32 ? "fp32" : "fp16") + ".bin";
    const auto resolver = [](VideoId) -> VideoType { return 0; };
    RecEngine expected(resolver, PinnedOptions(precision));
    FillPinnedState(expected);
    RecEngine loaded(resolver, PinnedOptions(precision));
    ASSERT_TRUE(LoadCheckpoint(fixture, &loaded.factors(), &loaded.sim_table(),
                               &loaded.history())
                    .ok());

    EXPECT_EQ(loaded.factors().NumUsers(), 12u);
    EXPECT_EQ(loaded.factors().NumVideos(), 20u);
    const auto same_bits = [](const FactorEntry& a, const FactorEntry& b) {
      return a.bias == b.bias && a.vec.size() == b.vec.size() &&
             std::memcmp(a.vec.data(), b.vec.data(),
                         a.vec.size() * sizeof(float)) == 0;
    };
    for (UserId u = 1; u <= 12; ++u) {
      auto want = expected.factors().GetUser(u);
      auto got = loaded.factors().GetUser(u);
      ASSERT_TRUE(want.ok() && got.ok()) << u;
      EXPECT_TRUE(same_bits(*want, *got)) << "user " << u;
    }
    for (VideoId v = 1; v <= 20; ++v) {
      auto want = expected.factors().GetVideo(v);
      auto got = loaded.factors().GetVideo(v);
      ASSERT_TRUE(want.ok() && got.ok()) << v;
      EXPECT_TRUE(same_bits(*want, *got)) << "video " << v;
    }
    for (VideoId v = 1; v <= 13; ++v) {
      for (VideoId w = 1; w <= 13; ++w) {
        EXPECT_EQ(loaded.sim_table().GetDecayedSimilarity(v, w, 20000),
                  expected.sim_table().GetDecayedSimilarity(v, w, 20000));
      }
    }
    for (UserId u = 1; u <= 6; ++u) {
      const std::vector<HistoryEntry> want = expected.history().Get(u);
      const std::vector<HistoryEntry> got = loaded.history().Get(u);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].video, want[i].video);
        EXPECT_EQ(got[i].weight, want[i].weight);
        EXPECT_EQ(got[i].time, want[i].time);
      }
    }

    // Saved again, the same state comes out in id order: the file is
    // V3BytesArePinned's, so its bytes match a fresh save of `expected`.
    ASSERT_TRUE(SaveCheckpoint(path_.string(), &loaded.factors(),
                               &loaded.sim_table(), &loaded.history())
                    .ok());
    std::ifstream resaved_in(path_, std::ios::binary);
    const std::string resaved((std::istreambuf_iterator<char>(resaved_in)),
                              std::istreambuf_iterator<char>());
    ASSERT_TRUE(SaveCheckpoint(path_.string(), &expected.factors(),
                               &expected.sim_table(), &expected.history())
                    .ok());
    std::ifstream fresh_in(path_, std::ios::binary);
    const std::string fresh((std::istreambuf_iterator<char>(fresh_in)),
                            std::istreambuf_iterator<char>());
    // magic(8), u64 factor length, the factor section, its CRC.
    std::uint64_t factor_len = 0;
    std::memcpy(&factor_len, fresh.data() + 8, sizeof(factor_len));
    const std::size_t factor_end = 8 + 8 + factor_len + 4;
    EXPECT_EQ(resaved.substr(0, factor_end), fresh.substr(0, factor_end))
        << "factor sections differ";
  }
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  FactorStore store(FactorOptions());
  EXPECT_TRUE(LoadCheckpoint("/nonexistent/ckpt.bin", &store, nullptr,
                             nullptr)
                  .IsNotFound());
}

TEST_F(CheckpointTest, BadMagicIsCorruption) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTACKPTxxxxxxxxxxxxxxxx";
  }
  FactorStore store(FactorOptions());
  EXPECT_EQ(LoadCheckpoint(path_.string(), &store, nullptr, nullptr).code(),
            StatusCode::kCorruption);
}

TEST_F(CheckpointTest, TruncatedFileIsCorruption) {
  FactorStore source(FactorOptions());
  for (UserId u = 1; u <= 10; ++u) source.GetOrInitUser(u);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  FactorStore store(FactorOptions());
  EXPECT_EQ(LoadCheckpoint(path_.string(), &store, nullptr, nullptr).code(),
            StatusCode::kCorruption);
}

TEST_F(CheckpointTest, DimensionalityMismatchRejected) {
  FactorStore source(FactorOptions());  // f = 8.
  source.GetOrInitUser(1);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());
  FactorStore::Options other;
  other.num_factors = 16;
  FactorStore wrong(other);
  EXPECT_TRUE(LoadCheckpoint(path_.string(), &wrong, nullptr, nullptr)
                  .IsInvalidArgument());
}

TEST_F(CheckpointTest, BitFlipMidFileRejectedWithLiveStoresUntouched) {
  // Regression for the staged load: corrupting a single byte anywhere in
  // the file must fail with Corruption (per-section CRC-32), and — the
  // part the old load-in-place implementation got wrong — the target
  // stores must come through completely untouched, even when the
  // corruption sits in a later section than the one being applied.
  FactorStore source(FactorOptions());
  for (UserId u = 1; u <= 10; ++u) {
    source.PutUser(u, source.GetOrInitUser(u).vec,
                   static_cast<float>(u) * 0.5f);
  }
  SimTableStore sims;
  sims.Update(1, 2, 0.7, 1000);
  HistoryStore history;
  history.Append(1, {10, 1.0, 100});
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, &sims, &history).ok());

  // Flip one bit in the middle of the file.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    const auto mid =
        static_cast<std::streamoff>(std::filesystem::file_size(path_) / 2);
    file.seekg(mid);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(mid);
    file.write(&byte, 1);
  }

  // Targets that already hold live serving state.
  FactorStore live(FactorOptions());
  live.PutUser(42, live.GetOrInitUser(42).vec, 9.0f);
  SimTableStore live_sims;
  live_sims.Update(7, 8, 0.9, 500);
  HistoryStore live_history;
  live_history.Append(5, {50, 3.0, 999});

  EXPECT_EQ(
      LoadCheckpoint(path_.string(), &live, &live_sims, &live_history).code(),
      StatusCode::kCorruption);

  // Every live store is exactly as it was before the failed load.
  EXPECT_EQ(live.NumUsers(), 1u);
  auto entry = live.GetUser(42);
  ASSERT_TRUE(entry.ok());
  EXPECT_FLOAT_EQ(entry->bias, 9.0f);
  EXPECT_FALSE(live.GetUser(1).ok());
  EXPECT_DOUBLE_EQ(live_sims.GetDecayedSimilarity(7, 8, 500), 0.9);
  EXPECT_EQ(live_sims.GetDecayedSimilarity(1, 2, 1000), 0.0);
  EXPECT_EQ(live_history.Get(5).size(), 1u);
  EXPECT_TRUE(live_history.Get(1).empty());
}

TEST_F(CheckpointTest, NullTargetsSkipSections) {
  FactorStore source(FactorOptions());
  source.GetOrInitUser(1);
  SimTableStore table;
  table.Update(1, 2, 0.5, 0);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, &table, nullptr).ok());
  // Load only the sim table.
  SimTableStore restored;
  ASSERT_TRUE(
      LoadCheckpoint(path_.string(), nullptr, &restored, nullptr).ok());
  EXPECT_DOUBLE_EQ(restored.GetDecayedSimilarity(1, 2, 0), 0.5);
}

}  // namespace
}  // namespace rtrec
