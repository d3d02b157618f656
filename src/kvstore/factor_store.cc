#include "kvstore/factor_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/trace.h"

namespace rtrec {

namespace {

/// GetVideosInto reads ids in chunks of this many, its buffers on the stack.
constexpr std::size_t kBatchChunk = 256;

}  // namespace

FactorStore::FactorStore() : FactorStore(Options{}) {}

FactorStore::FactorStore(Options options) : options_(std::move(options)) {
  payload_bytes_ = static_cast<std::size_t>(options_.num_factors) *
                   FactorWidthBytes(options_.precision);
  constexpr std::size_t kAlign = alignof(RecordHeader);
  record_bytes_ =
      (sizeof(RecordHeader) + payload_bytes_ + kAlign - 1) / kAlign * kAlign;
  if (options_.metrics != nullptr) {
    multiget_calls_ = options_.metrics->GetCounter("kvstore.multiget.calls");
    multiget_keys_ = options_.metrics->GetCounter("kvstore.multiget.keys");
    multiget_hits_ = options_.metrics->GetCounter("kvstore.multiget.hits");
    multiget_shard_batches_ =
        options_.metrics->GetCounter("kvstore.multiget.shard_batches");
    multiget_span_ =
        options_.metrics->GetHistogram("trace.stage.kvstore.multiget.us");
  }
}

std::byte* FactorStore::Find(const Stripe& stripe, std::uint64_t id,
                             std::uint64_t hash) const {
  if (stripe.capacity == 0) return nullptr;
  const std::size_t mask = stripe.capacity - 1;
  const std::uint8_t tag = Tag(hash);
  // The table is never full, so the probe always meets an empty slot.
  for (std::size_t slot = HomeSlot(hash) & mask;; slot = (slot + 1) & mask) {
    const std::uint8_t ctrl = stripe.ctrl[slot];
    if (ctrl == tag) {
      std::byte* record = RecordAt(stripe, slot);
      if (Header(record).id == id) return record;
    } else if (ctrl == kEmpty) {
      return nullptr;
    }
  }
}

std::byte* FactorStore::FindOrInsert(Stripe& stripe, std::uint64_t id,
                                     std::uint64_t hash,
                                     bool* inserted) const {
  if (std::byte* record = Find(stripe, id, hash)) {
    *inserted = false;
    return record;
  }
  if ((stripe.size + 1) * 8 > stripe.capacity * 7) {
    Rehash(stripe, std::max(kMinCapacity, 2 * stripe.capacity));
  }
  const std::size_t mask = stripe.capacity - 1;
  std::size_t slot = HomeSlot(hash) & mask;
  while (stripe.ctrl[slot] != kEmpty) slot = (slot + 1) & mask;
  stripe.ctrl[slot] = Tag(hash);
  ++stripe.size;
  std::byte* record = RecordAt(stripe, slot);
  new (record) RecordHeader{id, 0.0f, 0};
  *inserted = true;
  return record;
}

void FactorStore::Rehash(Stripe& stripe, std::size_t capacity) const {
  auto ctrl = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  std::memset(ctrl.get(), kEmpty, capacity);
  auto records =
      std::make_unique_for_overwrite<std::byte[]>(capacity * record_bytes_);
  const std::size_t mask = capacity - 1;
  for (std::size_t old = 0; old < stripe.capacity; ++old) {
    if (stripe.ctrl[old] == kEmpty) continue;
    const std::byte* record = RecordAt(stripe, old);
    const std::uint64_t hash = MixHash64(Header(record).id);
    std::size_t slot = HomeSlot(hash) & mask;
    while (ctrl[slot] != kEmpty) slot = (slot + 1) & mask;
    ctrl[slot] = stripe.ctrl[old];
    std::memcpy(records.get() + slot * record_bytes_, record, record_bytes_);
  }
  stripe.ctrl = std::move(ctrl);
  stripe.records = std::move(records);
  stripe.capacity = capacity;
}

void FactorStore::PackInto(std::span<const float> vec, float bias,
                           std::byte* record) const {
  Header(record).bias = bias;
  const std::size_t f = static_cast<std::size_t>(options_.num_factors);
  if (vec.size() == f) {
    QuantizeVector(options_.precision, vec.data(), f, Payload(record));
    return;
  }
  // Off-size vectors are truncated / zero-padded to num_factors so the
  // payload width stays fixed (every write path produces num_factors;
  // this is belt-and-braces for hand-built entries).
  std::vector<float> fixed(f, 0.0f);
  std::memcpy(fixed.data(), vec.data(),
              std::min(vec.size(), f) * sizeof(float));
  QuantizeVector(options_.precision, fixed.data(), f, Payload(record));
}

void FactorStore::UnpackInto(const std::byte* record, float* vec) const {
  DequantizeVector(options_.precision, record + sizeof(RecordHeader),
                   static_cast<std::size_t>(options_.num_factors), vec);
}

void FactorStore::MakeInitialEntryInto(std::uint64_t id, bool is_user,
                                       std::span<float> vec) const {
  assert(vec.size() == static_cast<std::size_t>(options_.num_factors));
  // Seed the per-id stream so initialization is independent of arrival
  // order; user and video streams are decorrelated by a salt.
  const std::uint64_t salt = is_user ? 0x75736572u : 0x766964u;
  Rng rng(MixHash64(options_.seed ^ MixHash64(id + salt)));
  for (float& v : vec) {
    v = static_cast<float>(
        rng.NextDouble(-options_.init_scale, options_.init_scale));
  }
}

FactorEntry FactorStore::MakeInitialEntry(std::uint64_t id,
                                          bool is_user) const {
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  MakeInitialEntryInto(id, is_user, entry.vec);
  return entry;
}

bool FactorStore::ReadInto(const Table& table, std::uint64_t id, float* vec,
                           float& bias) const {
  const std::uint64_t hash = MixHash64(id);
  const Stripe& stripe = table[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const std::byte* record = Find(stripe, id, hash);
  if (record == nullptr) return false;
  UnpackInto(record, vec);
  bias = Header(record).bias;
  return true;
}

float FactorStore::GetOrInitInto(Table& table, std::uint64_t id,
                                 bool is_user, std::span<float> vec) {
  assert(vec.size() == static_cast<std::size_t>(options_.num_factors));
  const std::uint64_t hash = MixHash64(id);
  Stripe& stripe = table[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  bool inserted = false;
  std::byte* record = FindOrInsert(stripe, id, hash, &inserted);
  if (inserted) {
    MakeInitialEntryInto(id, is_user, vec);
    PackInto(vec, 0.0f, record);
  }
  // Read back through the codec, so a new entry reads as stored.
  UnpackInto(record, vec.data());
  return Header(record).bias;
}

FactorEntry FactorStore::GetOrInitUser(UserId u) {
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  entry.bias = GetOrInitInto(users_, u, /*is_user=*/true, entry.vec);
  return entry;
}

FactorEntry FactorStore::GetOrInitVideo(VideoId i) {
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  entry.bias = GetOrInitInto(videos_, i, /*is_user=*/false, entry.vec);
  return entry;
}

float FactorStore::GetOrInitVideo(VideoId i, std::span<float> vec) {
  return GetOrInitInto(videos_, i, /*is_user=*/false, vec);
}

bool FactorStore::GetUserInto(UserId u, std::span<float> vec,
                              float& bias) const {
  assert(vec.size() == static_cast<std::size_t>(options_.num_factors));
  return ReadInto(users_, u, vec.data(), bias);
}

StatusOr<FactorEntry> FactorStore::GetUser(UserId u) const {
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  if (!ReadInto(users_, u, entry.vec.data(), entry.bias)) {
    return Status::NotFound("user");
  }
  return entry;
}

StatusOr<FactorEntry> FactorStore::GetVideo(VideoId i) const {
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  if (!ReadInto(videos_, i, entry.vec.data(), entry.bias)) {
    return Status::NotFound("video");
  }
  return entry;
}

std::size_t FactorStore::GetVideosInto(std::span<const VideoId> ids,
                                       std::span<float> rows,
                                       std::span<float> biases,
                                       std::span<bool> found) const {
  const std::size_t f = static_cast<std::size_t>(options_.num_factors);
  assert(rows.size() >= ids.size() * f);
  assert(biases.size() >= ids.size());
  assert(found.size() >= ids.size());
  if (multiget_calls_ != nullptr) multiget_calls_->Increment();
  if (multiget_keys_ != nullptr) {
    multiget_keys_->Increment(static_cast<std::int64_t>(ids.size()));
  }
  TraceSpan span(multiget_span_);

  // Each chunk locks the stripes it touches together, in ascending
  // index order (the only place that holds two stripe locks, so the
  // order cannot deadlock), once per chunk: once per call for the
  // ~24-key batches the serving path issues. With every lock held the
  // probes can overlap their cache misses: each home slot's control byte
  // is prefetched, then each found record, before any record is read.
  std::uint64_t hashes[kBatchChunk];
  const std::byte* records[kBatchChunk];
  std::size_t hits = 0;
  std::int64_t stripe_batches = 0;
  for (std::size_t base = 0; base < ids.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, ids.size() - base);
    std::uint32_t touched = 0;
    for (std::size_t k = 0; k < n; ++k) {
      hashes[k] = MixHash64(ids[base + k]);
      touched |= 1u << StripeIndex(hashes[k]);
    }
    for (std::size_t s = 0; s < kStripes; ++s) {
      if ((touched >> s) & 1u) videos_[s].mu.lock();
    }
    stripe_batches += std::popcount(touched);
    for (std::size_t k = 0; k < n; ++k) {
      const Stripe& stripe = videos_[StripeIndex(hashes[k])];
      if (stripe.capacity == 0) continue;
      __builtin_prefetch(
          &stripe.ctrl[HomeSlot(hashes[k]) & (stripe.capacity - 1)]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      records[k] = Find(videos_[StripeIndex(hashes[k])], ids[base + k],
                        hashes[k]);
      if (records[k] == nullptr) continue;
      for (std::size_t offset = 0; offset < record_bytes_; offset += 64) {
        __builtin_prefetch(records[k] + offset);
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pos = base + k;
      found[pos] = records[k] != nullptr;
      if (records[k] == nullptr) continue;
      UnpackInto(records[k], rows.data() + pos * f);
      biases[pos] = Header(records[k]).bias;
      ++hits;
    }
    for (std::size_t s = 0; s < kStripes; ++s) {
      if ((touched >> s) & 1u) videos_[s].mu.unlock();
    }
  }
  if (multiget_hits_ != nullptr) {
    multiget_hits_->Increment(static_cast<std::int64_t>(hits));
  }
  if (multiget_shard_batches_ != nullptr) {
    multiget_shard_batches_->Increment(stripe_batches);
  }
  return hits;
}

std::vector<FactorStore::VideoBatchEntry> FactorStore::GetVideos(
    std::span<const VideoId> ids) const {
  const std::size_t f = static_cast<std::size_t>(options_.num_factors);
  std::vector<float> rows(ids.size() * f);
  std::vector<float> biases(ids.size());
  auto found = std::make_unique<bool[]>(ids.size());
  GetVideosInto(ids, rows, biases, {found.get(), ids.size()});
  std::vector<VideoBatchEntry> results(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (!found[k]) continue;
    results[k].found = true;
    results[k].entry.vec.assign(rows.begin() + static_cast<std::ptrdiff_t>(k * f),
                                rows.begin() +
                                    static_cast<std::ptrdiff_t>((k + 1) * f));
    results[k].entry.bias = biases[k];
  }
  return results;
}

void FactorStore::Put(Table& table, std::uint64_t id,
                      std::span<const float> vec, float bias) {
  const std::uint64_t hash = MixHash64(id);
  Stripe& stripe = table[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  bool inserted = false;
  PackInto(vec, bias, FindOrInsert(stripe, id, hash, &inserted));
}

void FactorStore::PutUser(UserId u, std::span<const float> vec, float bias) {
  Put(users_, u, vec, bias);
}

void FactorStore::PutVideo(VideoId i, std::span<const float> vec,
                           float bias) {
  Put(videos_, i, vec, bias);
}

std::size_t FactorStore::Count(const Table& table) {
  std::size_t total = 0;
  for (const Stripe& stripe : table) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.size;
  }
  return total;
}

std::size_t FactorStore::NumUsers() const { return Count(users_); }

std::size_t FactorStore::NumVideos() const { return Count(videos_); }

void FactorStore::ForEachPacked(
    const Table& table,
    const std::function<void(std::uint64_t, const PackedView&)>& fn) const {
  for (const Stripe& stripe : table) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (std::size_t slot = 0; slot < stripe.capacity; ++slot) {
      if (stripe.ctrl[slot] == kEmpty) continue;
      std::byte* record = RecordAt(stripe, slot);
      const RecordHeader& header = Header(record);
      fn(header.id, PackedView{header.bias, Payload(record), payload_bytes_});
    }
  }
}

void FactorStore::ForEachUserPacked(
    const std::function<void(UserId, const PackedView&)>& fn) const {
  ForEachPacked(users_, fn);
}

void FactorStore::ForEachVideoPacked(
    const std::function<void(VideoId, const PackedView&)>& fn) const {
  ForEachPacked(videos_, fn);
}

bool FactorStore::PutPacked(Table& table, std::uint64_t id, float bias,
                            const std::byte* data, std::size_t size) {
  if (size != payload_bytes_) return false;
  const std::uint64_t hash = MixHash64(id);
  Stripe& stripe = table[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  bool inserted = false;
  std::byte* record = FindOrInsert(stripe, id, hash, &inserted);
  Header(record).bias = bias;
  std::memcpy(Payload(record), data, payload_bytes_);
  return true;
}

bool FactorStore::PutUserPacked(UserId u, float bias, const std::byte* data,
                                std::size_t size) {
  return PutPacked(users_, u, bias, data, size);
}

bool FactorStore::PutVideoPacked(VideoId i, float bias, const std::byte* data,
                                 std::size_t size) {
  return PutPacked(videos_, i, bias, data, size);
}

}  // namespace rtrec
