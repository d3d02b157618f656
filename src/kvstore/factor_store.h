#ifndef RTREC_KVSTORE_FACTOR_STORE_H_
#define RTREC_KVSTORE_FACTOR_STORE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "kvstore/quantization.h"

namespace rtrec {

/// A latent-factor entry: the vector (x_u or y_i) plus the bias term
/// (b_u or b_i) of Eq. 2.
struct FactorEntry {
  std::vector<float> vec;
  float bias = 0.0f;
};

/// Stores the matrix-factorization state: one FactorEntry per user and per
/// video (Eq. 2's global mean μ is 0 and stored nowhere; see OnlineMf).
/// This is the typed view over the paper's distributed KV store that the
/// ComputeMF / MFStorage bolts read and write. Hash-sharded with one mutex
/// per stripe; operations on distinct keys proceed in parallel. A critical
/// section is one hash lookup plus a (de)quantize of num_factors floats,
/// too short for a reader-writer lock's extra atomics to pay for
/// themselves.
///
/// Entries are stored packed: vectors are quantized on write to
/// `Options::precision` (float32 / float16) and dequantized on read, so the whole training and serving stack keeps speaking float
/// `FactorEntry`s while a million-entry store holds 80 bytes per entry
/// at fp16 instead of 144 at fp32 (16-byte packed struct + payload; see
/// BytesPerEntry). Every read decodes, so at fp16 the serving path pays
/// one decode per candidate per request.
///
/// New ids are lazily initialized with small random values drawn from a
/// deterministic per-id stream, so "new users and items can be easily
/// added" (Section 3.3) and initialization is reproducible regardless of
/// arrival order.
///
/// Writes to an existing entry quantize into its payload in place, and
/// GetOrInitVideo has a variant that dequantizes into a caller's buffer,
/// so the steady-state update path allocates nothing here.
class FactorStore {
 public:
  /// Lock stripes per id space (a power of two).
  static constexpr std::size_t kStripes = 16;

  struct Options {
    /// Latent dimensionality f.
    int num_factors = 32;
    /// Scale of the random initialization (uniform in ±init_scale).
    double init_scale = 0.1;
    /// Seed mixed with each id to derive its initial vector.
    std::uint64_t seed = 1;
    /// Storage precision of factor vectors. Biases stay float32 (one
    /// scalar per entry — quantizing it saves nothing and the bias
    /// carries the per-item popularity signal).
    FactorPrecision precision = FactorPrecision::kFloat32;
    /// Optional registry for batch-read counters (`kvstore.multiget.*`:
    /// the factor store is the typed view over the paper's KV store, so
    /// it reports under the same namespace); nullptr disables.
    MetricsRegistry* metrics = nullptr;
  };

  /// Constructs with default options.
  FactorStore();
  explicit FactorStore(Options options);

  FactorStore(const FactorStore&) = delete;
  FactorStore& operator=(const FactorStore&) = delete;

  int num_factors() const { return options_.num_factors; }
  FactorPrecision precision() const { return options_.precision; }

  /// Fixed storage cost of one entry: the packed struct (pointer + bias,
  /// padded to 16 bytes) plus the quantized payload. Hash-map node and bucket
  /// overhead is excluded — the bench's RSS rows carry the honest total.
  std::size_t BytesPerEntry() const {
    return sizeof(PackedFactorEntry) + payload_bytes_;
  }

  /// BytesPerEntry summed over every stored user and video entry.
  std::size_t ApproxFactorBytes() const {
    return (NumUsers() + NumVideos()) * BytesPerEntry();
  }

  /// Returns the user entry, creating and initializing it if absent.
  FactorEntry GetOrInitUser(UserId u);

  /// Returns the video entry, creating and initializing it if absent.
  FactorEntry GetOrInitVideo(VideoId i);

  /// GetOrInitVideo into a caller's buffer: writes the vector into `vec`
  /// (exactly num_factors floats) and returns the bias. Same values as
  /// GetOrInitVideo(i), without allocating for an existing id.
  float GetOrInitVideo(VideoId i, std::span<float> vec);

  /// Returns the user entry, or NotFound without creating it.
  StatusOr<FactorEntry> GetUser(UserId u) const;

  /// Returns the video entry, or NotFound without creating it.
  StatusOr<FactorEntry> GetVideo(VideoId i) const;

  /// One result of a batched video read.
  struct VideoBatchEntry {
    /// False when the id has no stored entry (the caller scores it with
    /// MakeInitialEntry instead).
    bool found = false;
    FactorEntry entry;
  };

  /// Batched VectorsGet (Fig. 1): fetches all ids in one pass, grouping
  /// them by stripe and taking each stripe lock exactly once instead of
  /// once per id. Results are aligned with `ids`.
  std::vector<VideoBatchEntry> GetVideos(std::span<const VideoId> ids) const;

  /// Overwrites the user entry (MFStorage bolt write path). The vector
  /// is quantized to the store's precision, into the existing payload
  /// when the id is already stored; reads return the quantized value,
  /// and vectors longer/shorter than num_factors are truncated/zero-
  /// padded to exactly num_factors.
  void PutUser(UserId u, std::span<const float> vec, float bias);

  /// Overwrites the video entry (MFStorage bolt write path).
  void PutVideo(VideoId i, std::span<const float> vec, float bias);

  std::size_t NumUsers() const;
  std::size_t NumVideos() const;

  /// Borrowed view of one packed (quantized) entry — valid only inside
  /// the ForEach*Packed callback that produced it. Checkpoints persist
  /// these raw bytes so a quantized store round-trips bit-exactly.
  struct PackedView {
    float bias = 0.0f;
    const std::byte* data = nullptr;
    /// Payload size: num_factors * FactorWidthBytes(precision).
    std::size_t size = 0;
  };

  /// Visits every user entry in packed form (checkpoint save path).
  void ForEachUserPacked(
      const std::function<void(UserId, const PackedView&)>& fn) const;

  /// Visits every video entry in packed form (checkpoint save path).
  void ForEachVideoPacked(
      const std::function<void(VideoId, const PackedView&)>& fn) const;

  /// Installs a raw packed payload (checkpoint load path). `size` must
  /// equal num_factors * FactorWidthBytes(precision()); returns false
  /// (and stores nothing) otherwise.
  bool PutUserPacked(UserId u, float bias, const std::byte* data,
                     std::size_t size);

  /// Video-side PutUserPacked.
  bool PutVideoPacked(VideoId i, float bias, const std::byte* data,
                      std::size_t size);

  /// Deterministically initializes an entry for `id` without storing it.
  FactorEntry MakeInitialEntry(std::uint64_t id, bool is_user) const;

 private:
  /// Quantized in-memory form of one entry: 16 bytes of struct (the
  /// bias is padded to the pointer's alignment) plus the payload the
  /// unique_ptr owns (num_factors * factor width).
  struct PackedFactorEntry {
    std::unique_ptr<std::byte[]> data;
    float bias = 0.0f;
  };
  static_assert(sizeof(PackedFactorEntry) == 16);

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, PackedFactorEntry> map;
  };

  /// One id space (users or videos) split over kStripes lock stripes.
  struct Table {
    Table();

    static std::size_t IndexOf(std::uint64_t id) {
      return MixHash64(id) & (kStripes - 1);
    }
    Stripe& StripeFor(std::uint64_t id) { return *stripes[IndexOf(id)]; }
    const Stripe& StripeFor(std::uint64_t id) const {
      return *stripes[IndexOf(id)];
    }

    std::array<std::unique_ptr<Stripe>, kStripes> stripes;
  };

  /// Quantizes `vec` into `packed`'s payload, allocating the payload only
  /// for a new entry.
  void PackInto(std::span<const float> vec, float bias,
                PackedFactorEntry& packed) const;
  /// Installs a raw payload of payload_bytes_ into `packed` (same reuse).
  void StorePacked(float bias, const std::byte* data,
                   PackedFactorEntry& packed) const;
  void UnpackInto(const PackedFactorEntry& packed, float* vec) const;
  FactorEntry Unpack(const PackedFactorEntry& packed) const;

  /// The stored entry for `id`, created from MakeInitialEntry if absent.
  /// Caller holds `stripe.mu`.
  const PackedFactorEntry& FindOrInit(Stripe& stripe, std::uint64_t id,
                                      bool is_user);

  Options options_;
  /// num_factors * FactorWidthBytes(precision), cached at construction.
  std::size_t payload_bytes_ = 0;
  Table users_;
  Table videos_;

  // Batch-read instrumentation: `<prefix>multiget.*` and its trace stage.
  Counter* multiget_calls_ = nullptr;
  Counter* multiget_keys_ = nullptr;
  Counter* multiget_hits_ = nullptr;
  Counter* multiget_shard_batches_ = nullptr;
  Histogram* multiget_span_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_KVSTORE_FACTOR_STORE_H_
