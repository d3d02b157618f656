#include "kvstore/quantization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "common/crc32.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "eval/experiment_runner.h"
#include "kvstore/checkpoint.h"
#include "kvstore/factor_store.h"

namespace rtrec {
namespace {

// --- Half-precision codec --------------------------------------------------

TEST(HalfCodecTest, ExactValuesRoundTrip) {
  // Every value here is exactly representable in binary16.
  const float exact[] = {0.0f,  -0.0f, 1.0f,   -1.0f,  0.5f,  2.0f,
                         1.5f,  0.25f, -0.75f, 1024.0f, 65504.0f,
                         -65504.0f, 0.0009765625f /* 2^-10 */};
  for (float v : exact) {
    EXPECT_EQ(DecodeHalf(EncodeHalf(v)), v) << "value " << v;
  }
  // Signed zero keeps its sign bit.
  EXPECT_EQ(EncodeHalf(-0.0f), 0x8000u);
  EXPECT_EQ(EncodeHalf(0.0f), 0x0000u);
}

TEST(HalfCodecTest, NormalRelativeErrorBounded) {
  // Round-to-nearest gives relative error <= 2^-11 for normal halves.
  constexpr float kMaxRel = 1.0f / 2048.0f;
  for (int i = 0; i < 4000; ++i) {
    const float v = -8.0f + 0.004f * static_cast<float>(i);
    if (std::fabs(v) < 0.01f) continue;  // Stay in the normal range.
    const float back = DecodeHalf(EncodeHalf(v));
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * kMaxRel) << "value " << v;
  }
}

TEST(HalfCodecTest, SubnormalsRoundTrip) {
  // Half subnormals are multiples of 2^-24; those multiples round-trip
  // exactly, and anything in range survives within half a step.
  constexpr float kStep = 5.9604644775390625e-8f;  // 2^-24.
  for (int m = 1; m < 1024; m += 37) {
    const float v = kStep * static_cast<float>(m);
    EXPECT_EQ(DecodeHalf(EncodeHalf(v)), v) << "multiple " << m;
    EXPECT_EQ(DecodeHalf(EncodeHalf(-v)), -v) << "multiple -" << m;
  }
  const float tiny = 1.7e-8f;  // Below range: underflows to zero...
  EXPECT_EQ(DecodeHalf(EncodeHalf(tiny)), 0.0f);
  // ...but values just under the subnormal threshold round to a step.
  const float near = kStep * 3.4f;
  EXPECT_LE(std::fabs(DecodeHalf(EncodeHalf(near)) - near), kStep / 2.0f);
}

TEST(HalfCodecTest, SpecialsAndOverflow) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(DecodeHalf(EncodeHalf(inf)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(DecodeHalf(EncodeHalf(
      std::numeric_limits<float>::quiet_NaN()))));
  // Beyond the half range (max finite half is 65504) rounds to Inf.
  EXPECT_EQ(DecodeHalf(EncodeHalf(70000.0f)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(-1e9f)), -inf);
}

// --- Vector quantization ---------------------------------------------------

TEST(QuantizeVectorTest, Float32IsLossless) {
  const std::vector<float> in = {0.1f, -2.5f, 3.75f, 0.0f};
  std::vector<std::byte> packed(in.size() * 4);
  std::vector<float> out(in.size());
  QuantizeVector(FactorPrecision::kFloat32, in.data(), in.size(),
                 packed.data());
  DequantizeVector(FactorPrecision::kFloat32, packed.data(), in.size(),
                   out.data());
  EXPECT_EQ(out, in);
}

// --- Quantized FactorStore -------------------------------------------------

FactorStore::Options StoreOptions(FactorPrecision precision) {
  FactorStore::Options o;
  o.num_factors = 8;
  o.precision = precision;
  return o;
}

std::vector<float> TestVector(int salt) {
  std::vector<float> v(8);
  for (int i = 0; i < 8; ++i) {
    v[i] = 0.3f * std::sin(0.9 * (salt + i)) + 0.01f * salt;
  }
  return v;
}

TEST(QuantizedFactorStoreTest, Fp16RoundTripWithinBound) {
  FactorStore store(StoreOptions(FactorPrecision::kFloat16));
  for (UserId u = 1; u <= 10; ++u) {
    FactorEntry e;
    e.vec = TestVector(static_cast<int>(u));
    e.bias = 0.25f * u;  // Biases stay float32: exact.
    store.PutUser(u, e.vec, e.bias);
  }
  for (UserId u = 1; u <= 10; ++u) {
    const auto got = store.GetUser(u);
    ASSERT_TRUE(got.ok());
    EXPECT_FLOAT_EQ(got->bias, 0.25f * u);
    const std::vector<float> want = TestVector(static_cast<int>(u));
    for (int i = 0; i < 8; ++i) {
      EXPECT_LE(std::fabs(got->vec[i] - want[i]),
                std::fabs(want[i]) / 2048.0f + 1e-7f);
    }
  }
}

TEST(QuantizedFactorStoreTest, GetOrInitIsReadYourWriteConsistent) {
  // The lazily-initialized entry a reader sees must equal what a second
  // read returns — initialization goes through the same quantized
  // payload, not a float side channel.
  FactorStore store(StoreOptions(FactorPrecision::kFloat16));
  const FactorEntry first = store.GetOrInitUser(42);
  const FactorEntry second = store.GetOrInitUser(42);
  EXPECT_EQ(first.vec, second.vec);
  EXPECT_EQ(first.bias, second.bias);
}

TEST(QuantizedFactorStoreTest, BytesPerEntryShrinks) {
  FactorStore::Options fp32 = StoreOptions(FactorPrecision::kFloat32);
  fp32.num_factors = 32;
  FactorStore::Options fp16 = StoreOptions(FactorPrecision::kFloat16);
  fp16.num_factors = 32;
  const FactorStore s32(fp32), s16(fp16);
  // A 16-byte packed struct plus the payload.
  EXPECT_EQ(s32.BytesPerEntry(), 16u + 32u * 4u);
  EXPECT_EQ(s16.BytesPerEntry(), 16u + 32u * 2u);
  // The fp16 guardrail: >=40% smaller per entry than float32.
  EXPECT_LE(static_cast<double>(s16.BytesPerEntry()),
            0.6 * static_cast<double>(s32.BytesPerEntry()));
}

TEST(QuantizedFactorStoreTest, ApproxFactorBytesCountsEntries) {
  FactorStore store(StoreOptions(FactorPrecision::kFloat16));
  EXPECT_EQ(store.ApproxFactorBytes(), 0u);
  store.GetOrInitUser(1);
  store.GetOrInitVideo(2);
  store.GetOrInitVideo(3);
  EXPECT_EQ(store.ApproxFactorBytes(), 3 * store.BytesPerEntry());
}

// --- Checkpoint format versions -------------------------------------------

class QuantizedCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rtrec_quant_ckpt_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(QuantizedCheckpointTest, SamePrecisionIsBitExact) {
  for (FactorPrecision p : {FactorPrecision::kFloat32,
                            FactorPrecision::kFloat16}) {
    FactorStore source(StoreOptions(p));
    for (UserId u = 1; u <= 12; ++u) {
      FactorEntry e;
      e.vec = TestVector(static_cast<int>(u));
      e.bias = 0.1f * u;
      source.PutUser(u, e.vec, e.bias);
    }
    for (VideoId v = 1; v <= 9; ++v) source.GetOrInitVideo(v);
    ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr)
                    .ok());

    FactorStore restored(StoreOptions(p));
    ASSERT_TRUE(LoadCheckpoint(path_.string(), &restored, nullptr, nullptr)
                    .ok());
    for (UserId u = 1; u <= 12; ++u) {
      // Raw payloads round-trip, so the dequantized views are identical
      // (no second quantization hop).
      EXPECT_EQ(restored.GetUser(u)->vec, source.GetUser(u)->vec)
          << FactorPrecisionToString(p) << " user " << u;
    }
    for (VideoId v = 1; v <= 9; ++v) {
      EXPECT_EQ(restored.GetVideo(v)->vec, source.GetVideo(v)->vec);
    }
  }
}

// A live store no failed load may touch: one user.
void ExpectPriorStateOnly(const FactorStore& target,
                          const std::vector<float>& prior) {
  EXPECT_EQ(target.NumUsers(), 1u);
  EXPECT_EQ(target.NumVideos(), 0u);
  const auto entry = target.GetUser(3);
  ASSERT_TRUE(entry.ok());
  EXPECT_FLOAT_EQ(entry->bias, 0.25f);
  EXPECT_EQ(entry->vec, prior);
}

TEST_F(QuantizedCheckpointTest, PrecisionMismatchIsInvalidArgument) {
  // A checkpoint restores only into a store of its own precision, like
  // its own dimensionality: the mismatch fails before anything is
  // applied, in both directions.
  for (const FactorPrecision saved :
       {FactorPrecision::kFloat32, FactorPrecision::kFloat16}) {
    const FactorPrecision other = saved == FactorPrecision::kFloat32
                                      ? FactorPrecision::kFloat16
                                      : FactorPrecision::kFloat32;
    SCOPED_TRACE(FactorPrecisionToString(saved));
    FactorStore source(StoreOptions(saved));
    for (UserId u = 1; u <= 6; ++u) {
      source.PutUser(u, TestVector(static_cast<int>(u)), 0.5f);
    }
    source.GetOrInitVideo(9);
    ASSERT_TRUE(
        SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());

    FactorStore target(StoreOptions(other));
    // Vectors exact at fp16, so the prior state reads back the same at
    // either precision.
    const std::vector<float> prior = {0.5f, -0.25f, 0.125f, 1.0f,
                                      -1.0f, 0.0f,  0.75f,  -0.5f};
    target.PutUser(3, prior, 0.25f);

    const Status status =
        LoadCheckpoint(path_.string(), &target, nullptr, nullptr);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    ExpectPriorStateOnly(target, prior);
  }
}

TEST_F(QuantizedCheckpointTest, UnknownPrecisionTagIsCorruption) {
  // Tag 2 was the retired int8 precision. A file carrying it, with a
  // valid CRC, is corrupt: no store can hold its payloads.
  FactorStore source(StoreOptions(FactorPrecision::kFloat32));
  source.PutUser(7, TestVector(1), 0.5f);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());
  std::string file;
  {
    std::ifstream in(path_, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // magic(8) | u64 section length | u32 num_factors | u8 precision | ...
  std::uint64_t len = 0;
  std::memcpy(&len, file.data() + 8, sizeof(len));
  ASSERT_EQ(file[20], 0);  // kFloat32.
  file[20] = 2;
  const std::uint32_t crc = Crc32(file.data() + 16, len);
  std::memcpy(file.data() + 16 + len, &crc, sizeof(crc));
  ASSERT_TRUE(WriteFileAtomic(path_.string(), file).ok());

  FactorStore target(StoreOptions(FactorPrecision::kFloat32));
  const std::vector<float> prior = TestVector(2);
  target.PutUser(3, prior, 0.25f);
  const Status status =
      LoadCheckpoint(path_.string(), &target, nullptr, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  ExpectPriorStateOnly(target, prior);
}

TEST_F(QuantizedCheckpointTest, NonzeroRatingSlotsStillLoad) {
  // A snapshot written while the store kept the rating mean μ carries a
  // nonzero (sum, count) in the factor header's reserved slots; every
  // trained store's snapshot looks like this. The slots are read and
  // ignored, so such a file restores every entry bit-exactly.
  FactorStore source(StoreOptions(FactorPrecision::kFloat32));
  for (UserId u = 1; u <= 12; ++u) {
    source.PutUser(u, TestVector(static_cast<int>(u)), 0.1f * u);
  }
  for (VideoId v = 1; v <= 9; ++v) source.GetOrInitVideo(v);
  ASSERT_TRUE(SaveCheckpoint(path_.string(), &source, nullptr, nullptr).ok());
  std::string file;
  {
    std::ifstream in(path_, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // magic(8) | u64 section length | u32 num_factors | u8 precision |
  // f64 rating sum | u64 rating count | ...
  std::uint64_t len = 0;
  std::memcpy(&len, file.data() + 8, sizeof(len));
  const double sum = 6512.25;
  const std::uint64_t count = 7321;
  std::memcpy(file.data() + 21, &sum, sizeof(sum));
  std::memcpy(file.data() + 29, &count, sizeof(count));
  const std::uint32_t crc = Crc32(file.data() + 16, len);
  std::memcpy(file.data() + 16 + len, &crc, sizeof(crc));
  ASSERT_TRUE(WriteFileAtomic(path_.string(), file).ok());

  FactorStore restored(StoreOptions(FactorPrecision::kFloat32));
  const Status status =
      LoadCheckpoint(path_.string(), &restored, nullptr, nullptr);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.NumUsers(), 12u);
  EXPECT_EQ(restored.NumVideos(), 9u);
  for (UserId u = 1; u <= 12; ++u) {
    const auto got = restored.GetUser(u);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->vec, source.GetUser(u)->vec) << "user " << u;
    EXPECT_EQ(got->bias, source.GetUser(u)->bias) << "user " << u;
  }
  for (VideoId v = 1; v <= 9; ++v) {
    const auto got = restored.GetVideo(v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->vec, source.GetVideo(v)->vec) << "video " << v;
    EXPECT_EQ(got->bias, source.GetVideo(v)->bias) << "video " << v;
  }
}

TEST_F(QuantizedCheckpointTest, RejectsRetiredV2Magic) {
  // Hand-build a pre-quantization v2 file: float32 entries, no precision
  // tag. The format is retired, so its magic is as unknown as any other
  // and the target store is left untouched.
  auto append = [](std::string& buf, const auto& value) {
    buf.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  auto frame = [&](std::string& file, const std::string& section) {
    const std::uint64_t len = section.size();
    const std::uint32_t crc = Crc32(section.data(), section.size());
    append(file, len);
    file.append(section);
    append(file, crc);
  };

  const std::vector<float> vec = TestVector(1);
  std::string factors;
  append(factors, std::uint32_t{8});     // num_factors (no precision tag).
  append(factors, double{5.0});          // rating sum.
  append(factors, std::uint64_t{2});     // rating count.
  append(factors, std::uint64_t{1});     // num users.
  append(factors, std::uint64_t{0});     // num videos.
  append(factors, std::uint64_t{7});     // user id.
  append(factors, float{0.5f});          // bias.
  append(factors, std::uint32_t{8});     // vector length.
  factors.append(reinterpret_cast<const char*>(vec.data()),
                 vec.size() * sizeof(float));

  std::string empty;
  append(empty, std::uint64_t{0});  // Zero lists / histories.

  std::string file = "RTRECCP";
  file += '2';  // The v2 magic.
  frame(file, factors);
  frame(file, empty);
  frame(file, empty);
  ASSERT_TRUE(WriteFileAtomic(path_.string(), file).ok());

  FactorStore target(StoreOptions(FactorPrecision::kFloat32));
  const std::vector<float> prior = TestVector(2);
  target.PutUser(3, prior, 0.25f);

  const Status status =
      LoadCheckpoint(path_.string(), &target, nullptr, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  ExpectPriorStateOnly(target, prior);
}

// --- Recall guardrail ------------------------------------------------------

TEST(QuantizedRecallTest, Fp16RecallWithinOnePercentOfFp32) {
  // Same world, same split, same seed; the engines differ only in factor
  // storage precision. fp16 rounding (2^-11 relative) is far below the
  // SGD noise floor, so recall@10 must match within the ISSUE's 1% band.
  const SyntheticWorld world(SmallWorldConfig());
  const Dataset cleaned =
      Dataset(world.GenerateDays(0, 7)).FilterMinActivity(5, 3);
  const auto [train, test] = cleaned.SplitAtTime(6 * kMillisPerDay);
  ASSERT_GT(train.size(), 0u);
  ASSERT_GT(test.size(), 0u);

  const OfflineEvaluator evaluator;
  double recall10[2] = {0.0, 0.0};
  const FactorPrecision precisions[2] = {FactorPrecision::kFloat32,
                                         FactorPrecision::kFloat16};
  for (int i = 0; i < 2; ++i) {
    RecEngine::Options options =
        DefaultEngineOptions(UpdatePolicy::kCombine);
    options.model.precision = precisions[i];
    RecEngine engine(world.TypeResolver(), options);
    recall10[i] = evaluator.Evaluate(engine, train, test).recall(10);
  }
  ASSERT_GT(recall10[0], 0.0);
  EXPECT_LT(std::fabs(recall10[1] - recall10[0]) / recall10[0], 0.01)
      << "fp32 recall@10 " << recall10[0] << " vs fp16 " << recall10[1];
}

}  // namespace
}  // namespace rtrec
