#include "kvstore/factor_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/trace.h"

namespace rtrec {

FactorStore::Table::Table() {
  for (auto& stripe : stripes) stripe = std::make_unique<Stripe>();
}

FactorStore::FactorStore() : FactorStore(Options{}) {}

FactorStore::FactorStore(Options options) : options_(std::move(options)) {
  payload_bytes_ = static_cast<std::size_t>(options_.num_factors) *
                   FactorWidthBytes(options_.precision);
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

void FactorStore::PackInto(std::span<const float> vec, float bias,
                           PackedFactorEntry& packed) const {
  if (packed.data == nullptr) {
    packed.data = std::make_unique<std::byte[]>(payload_bytes_);
  }
  packed.bias = bias;
  const std::size_t f = static_cast<std::size_t>(options_.num_factors);
  if (vec.size() == f) {
    QuantizeVector(options_.precision, vec.data(), f, packed.data.get());
    return;
  }
  // Off-size vectors are truncated / zero-padded to num_factors so the
  // payload width stays fixed (every write path produces num_factors;
  // this is belt-and-braces for hand-built entries).
  std::vector<float> fixed(f, 0.0f);
  std::memcpy(fixed.data(), vec.data(),
              std::min(vec.size(), f) * sizeof(float));
  QuantizeVector(options_.precision, fixed.data(), f, packed.data.get());
}

void FactorStore::UnpackInto(const PackedFactorEntry& packed,
                             float* vec) const {
  DequantizeVector(options_.precision, packed.data.get(),
                   static_cast<std::size_t>(options_.num_factors), vec);
}

FactorEntry FactorStore::Unpack(const PackedFactorEntry& packed) const {
  FactorEntry entry;
  entry.bias = packed.bias;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  UnpackInto(packed, entry.vec.data());
  return entry;
}

void FactorStore::StorePacked(float bias, const std::byte* data,
                              PackedFactorEntry& packed) const {
  if (packed.data == nullptr) {
    packed.data = std::make_unique<std::byte[]>(payload_bytes_);
  }
  packed.bias = bias;
  std::memcpy(packed.data.get(), data, payload_bytes_);
}

FactorEntry FactorStore::MakeInitialEntry(std::uint64_t id,
                                          bool is_user) const {
  // Seed the per-id stream so initialization is independent of arrival
  // order; user and video streams are decorrelated by a salt.
  const std::uint64_t salt = is_user ? 0x75736572u : 0x766964u;
  Rng rng(MixHash64(options_.seed ^ MixHash64(id + salt)));
  FactorEntry entry;
  entry.vec.resize(static_cast<std::size_t>(options_.num_factors));
  for (float& v : entry.vec) {
    v = static_cast<float>(
        rng.NextDouble(-options_.init_scale, options_.init_scale));
  }
  entry.bias = 0.0f;
  return entry;
}

const FactorStore::PackedFactorEntry& FactorStore::FindOrInit(
    Stripe& stripe, std::uint64_t id, bool is_user) {
  auto [it, inserted] = stripe.map.try_emplace(id);
  if (inserted) {
    const FactorEntry initial = MakeInitialEntry(id, is_user);
    PackInto(initial.vec, initial.bias, it->second);
  }
  return it->second;
}

FactorEntry FactorStore::GetOrInitUser(UserId u) {
  Stripe& stripe = users_.StripeFor(u);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return Unpack(FindOrInit(stripe, u, /*is_user=*/true));
}

FactorEntry FactorStore::GetOrInitVideo(VideoId i) {
  Stripe& stripe = videos_.StripeFor(i);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return Unpack(FindOrInit(stripe, i, /*is_user=*/false));
}

float FactorStore::GetOrInitVideo(VideoId i, std::span<float> vec) {
  assert(vec.size() == static_cast<std::size_t>(options_.num_factors));
  Stripe& stripe = videos_.StripeFor(i);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const PackedFactorEntry& packed = FindOrInit(stripe, i, /*is_user=*/false);
  UnpackInto(packed, vec.data());
  return packed.bias;
}

StatusOr<FactorEntry> FactorStore::GetUser(UserId u) const {
  const auto& stripe = users_.StripeFor(u);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(u);
  if (it == stripe.map.end()) return Status::NotFound("user");
  return Unpack(it->second);
}

StatusOr<FactorEntry> FactorStore::GetVideo(VideoId i) const {
  const auto& stripe = videos_.StripeFor(i);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(i);
  if (it == stripe.map.end()) return Status::NotFound("video");
  return Unpack(it->second);
}

std::vector<FactorStore::VideoBatchEntry> FactorStore::GetVideos(
    std::span<const VideoId> ids) const {
  if (multiget_calls_ != nullptr) multiget_calls_->Increment();
  if (multiget_keys_ != nullptr) {
    multiget_keys_->Increment(static_cast<std::int64_t>(ids.size()));
  }
  TraceSpan span(multiget_span_);
  std::vector<VideoBatchEntry> results(ids.size());

  // Group positions by stripe so each stripe lock is taken once. Stripe
  // counts are small powers of two; sorting (stripe, position) pairs is
  // cheaper than per-stripe buckets for the ~24-key batches the serving
  // path issues.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  order.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    order.emplace_back(
        static_cast<std::uint32_t>(Table::IndexOf(ids[i])),
        static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());

  std::int64_t hits = 0;
  std::int64_t stripe_batches = 0;
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t stripe_index = order[i].first;
    const auto& stripe = *videos_.stripes[stripe_index];
    std::lock_guard<std::mutex> lock(stripe.mu);
    ++stripe_batches;
    for (; i < order.size() && order[i].first == stripe_index; ++i) {
      const std::size_t pos = order[i].second;
      const VideoId id = ids[pos];
      auto it = stripe.map.find(id);
      if (it == stripe.map.end()) continue;  // found stays false.
      VideoBatchEntry& result = results[pos];
      result.found = true;
      result.entry = Unpack(it->second);
      ++hits;
    }
  }
  if (multiget_hits_ != nullptr) multiget_hits_->Increment(hits);
  if (multiget_shard_batches_ != nullptr) {
    multiget_shard_batches_->Increment(stripe_batches);
  }
  return results;
}

void FactorStore::PutUser(UserId u, std::span<const float> vec, float bias) {
  Stripe& stripe = users_.StripeFor(u);
  std::lock_guard<std::mutex> lock(stripe.mu);
  PackInto(vec, bias, stripe.map[u]);
}

void FactorStore::PutVideo(VideoId i, std::span<const float> vec,
                           float bias) {
  Stripe& stripe = videos_.StripeFor(i);
  std::lock_guard<std::mutex> lock(stripe.mu);
  PackInto(vec, bias, stripe.map[i]);
}

std::size_t FactorStore::NumUsers() const {
  std::size_t total = 0;
  for (const auto& stripe : users_.stripes) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->map.size();
  }
  return total;
}

std::size_t FactorStore::NumVideos() const {
  std::size_t total = 0;
  for (const auto& stripe : videos_.stripes) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->map.size();
  }
  return total;
}

void FactorStore::ForEachUserPacked(
    const std::function<void(UserId, const PackedView&)>& fn) const {
  for (const auto& stripe : users_.stripes) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [id, entry] : stripe->map) {
      fn(id, PackedView{entry.bias, entry.data.get(), payload_bytes_});
    }
  }
}

void FactorStore::ForEachVideoPacked(
    const std::function<void(VideoId, const PackedView&)>& fn) const {
  for (const auto& stripe : videos_.stripes) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [id, entry] : stripe->map) {
      fn(id, PackedView{entry.bias, entry.data.get(), payload_bytes_});
    }
  }
}

bool FactorStore::PutUserPacked(UserId u, float bias, const std::byte* data,
                                std::size_t size) {
  if (size != payload_bytes_) return false;
  Stripe& stripe = users_.StripeFor(u);
  std::lock_guard<std::mutex> lock(stripe.mu);
  StorePacked(bias, data, stripe.map[u]);
  return true;
}

bool FactorStore::PutVideoPacked(VideoId i, float bias, const std::byte* data,
                                 std::size_t size) {
  if (size != payload_bytes_) return false;
  Stripe& stripe = videos_.StripeFor(i);
  std::lock_guard<std::mutex> lock(stripe.mu);
  StorePacked(bias, data, stripe.map[i]);
  return true;
}

}  // namespace rtrec
