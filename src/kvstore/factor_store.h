#ifndef RTREC_KVSTORE_FACTOR_STORE_H_
#define RTREC_KVSTORE_FACTOR_STORE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <span>
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
/// section is one probe plus a (de)quantize of num_factors floats, too
/// short for a reader-writer lock's extra atomics to pay for themselves.
///
/// Each stripe is one open-addressing table with linear probing. Slot i
/// is a control byte, ctrl[i], plus a record in one contiguous array:
///
///   ctrl[i]:  0x80 empty, else the top 7 bits of the id's hash (a tag)
///   record i: u64 id | f32 bias | 4 reserved bytes | packed payload
///
/// The payload is the vector quantized to `Options::precision` (float32
/// or float16) and sits inline, so a read is a scan of the control bytes
/// from the id's home slot, one id compare per tag match, and a
/// dequantize from the same record: no node, bucket or payload pointer
/// is chased. Every u64 id is storable; emptiness lives in the control
/// byte, not in a reserved id. A stripe doubles when an insert would
/// take it past 7/8 full, so it runs between 7/16 and 7/8 full. Entries
/// are never erased.
///
/// The whole training and serving stack keeps speaking float
/// `FactorEntry`s (or float rows in a caller's buffer) while a
/// million-entry store holds an 80-byte record per entry at fp16
/// instead of 144 at fp32 (see BytesPerEntry). Every read decodes, so at
/// fp16 the serving path pays one decode per candidate per request.
///
/// New ids are lazily initialized with small random values drawn from a
/// deterministic per-id stream, so "new users and items can be easily
/// added" (Section 3.3) and initialization is reproducible regardless of
/// arrival order.
///
/// Writes to an existing entry quantize into its record in place, and
/// the read paths the server runs (GetVideosInto, GetUserInto,
/// GetOrInitVideo's buffer form) dequantize into a caller's buffer, so
/// steady-state reads and updates allocate nothing here.
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

  /// Bytes of one slot's record: the 16-byte header (id, bias, reserved)
  /// plus the inline quantized payload, rounded up to 8 bytes. The
  /// control byte and the empty slots of a table between 7/16 and 7/8
  /// full are excluded; the bench's RSS rows carry the honest total.
  std::size_t BytesPerEntry() const { return record_bytes_; }

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

  /// GetUser into a caller's buffer: when `u` is stored, writes its
  /// vector into `vec` (exactly num_factors floats) and its bias into
  /// `bias` and returns true; otherwise returns false and writes nothing.
  bool GetUserInto(UserId u, std::span<float> vec, float& bias) const;

  /// Returns the video entry, or NotFound without creating it.
  StatusOr<FactorEntry> GetVideo(VideoId i) const;

  /// One result of a batched video read.
  struct VideoBatchEntry {
    /// False when the id has no stored entry (the caller scores it with
    /// MakeInitialEntry instead).
    bool found = false;
    FactorEntry entry;
  };

  /// Batched VectorsGet (Fig. 1) into caller-owned buffers: fetches all
  /// ids in one pass, grouping them by stripe and taking each stripe lock
  /// once per pass instead of once per id. For each stored ids[k], writes
  /// its vector into rows[k * num_factors, (k + 1) * num_factors), its
  /// bias into biases[k] and true into found[k]; an absent id gets
  /// found[k] = false and its row and bias are left as they were (the
  /// caller scores it with MakeInitialEntryInto). `rows` holds at least
  /// ids.size() * num_factors floats, `biases` and `found` at least
  /// ids.size(). Returns the number of ids found. Allocates nothing.
  std::size_t GetVideosInto(std::span<const VideoId> ids,
                            std::span<float> rows, std::span<float> biases,
                            std::span<bool> found) const;

  /// GetVideosInto with owned results aligned with `ids`.
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

  /// MakeInitialEntry's vector written into `vec` (exactly num_factors
  /// floats); the initial bias is always 0.
  void MakeInitialEntryInto(std::uint64_t id, bool is_user,
                            std::span<float> vec) const;

 private:
  /// A record's fixed fields; the packed payload follows them inline.
  struct RecordHeader {
    std::uint64_t id = 0;
    float bias = 0.0f;
    std::uint32_t reserved = 0;
  };
  static_assert(sizeof(RecordHeader) == 16);

  /// Control byte of an empty slot; a full slot holds a 7-bit tag.
  static constexpr std::uint8_t kEmpty = 0x80;
  /// Slots of a stripe's first table.
  static constexpr std::size_t kMinCapacity = 16;

  /// One lock stripe of an id space: an open-addressing table (see the
  /// class comment). Aligned so neighbouring stripes' mutexes do not
  /// share a cache line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// `capacity` control bytes.
    std::unique_ptr<std::uint8_t[]> ctrl;
    /// `capacity` records of record_bytes_ each.
    std::unique_ptr<std::byte[]> records;
    /// 0 before the first insert, else a power of two.
    std::size_t capacity = 0;
    std::size_t size = 0;
  };

  /// One id space (users or videos) split over kStripes lock stripes.
  /// The low bits of an id's hash pick its stripe, the next bits its
  /// home slot, the top 7 bits its tag.
  using Table = std::array<Stripe, kStripes>;

  static std::size_t StripeIndex(std::uint64_t hash) {
    return hash & (kStripes - 1);
  }
  static std::size_t HomeSlot(std::uint64_t hash) { return hash >> 4; }
  static std::uint8_t Tag(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 57);
  }

  std::byte* RecordAt(const Stripe& stripe, std::size_t slot) const {
    return stripe.records.get() + slot * record_bytes_;
  }
  static RecordHeader& Header(std::byte* record) {
    return *std::launder(reinterpret_cast<RecordHeader*>(record));
  }
  static const RecordHeader& Header(const std::byte* record) {
    return *std::launder(reinterpret_cast<const RecordHeader*>(record));
  }
  static std::byte* Payload(std::byte* record) {
    return record + sizeof(RecordHeader);
  }

  /// The record of `id` in `stripe`, or nullptr. Caller holds `stripe.mu`.
  std::byte* Find(const Stripe& stripe, std::uint64_t id,
                  std::uint64_t hash) const;
  /// The record of `id`, inserted with its header set and its payload
  /// unwritten if absent (`*inserted` says which). Grows the stripe first
  /// when the insert would take it past 7/8 full. Caller holds `stripe.mu`.
  std::byte* FindOrInsert(Stripe& stripe, std::uint64_t id,
                          std::uint64_t hash, bool* inserted) const;
  /// Rehashes every record of `stripe` into a table of `capacity` slots.
  void Rehash(Stripe& stripe, std::size_t capacity) const;

  /// Quantizes `vec` (truncated / zero-padded to num_factors) into the
  /// record's payload and sets its bias.
  void PackInto(std::span<const float> vec, float bias,
                std::byte* record) const;
  /// Dequantizes the record's payload into `vec` (num_factors floats).
  void UnpackInto(const std::byte* record, float* vec) const;
  /// Reads `id`'s entry from `table` into `vec` and `bias`; false if
  /// absent.
  bool ReadInto(const Table& table, std::uint64_t id, float* vec,
                float& bias) const;
  /// Writes `id`'s vector from `table` into `vec` and returns its bias,
  /// storing MakeInitialEntry's first if `id` is absent.
  float GetOrInitInto(Table& table, std::uint64_t id, bool is_user,
                      std::span<float> vec);
  void Put(Table& table, std::uint64_t id, std::span<const float> vec,
           float bias);
  bool PutPacked(Table& table, std::uint64_t id, float bias,
                 const std::byte* data, std::size_t size);
  void ForEachPacked(
      const Table& table,
      const std::function<void(std::uint64_t, const PackedView&)>& fn) const;
  static std::size_t Count(const Table& table);

  Options options_;
  /// num_factors * FactorWidthBytes(precision), cached at construction.
  std::size_t payload_bytes_ = 0;
  /// sizeof(RecordHeader) + payload_bytes_, rounded up to 8 bytes.
  std::size_t record_bytes_ = 0;
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
