#include "kvstore/sim_table_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

namespace rtrec {

namespace {
/// Chunks grow up to this size, so a big table amortizes to one malloc
/// per ~64KB instead of one per video.
constexpr std::size_t kMaxChunkBytes = 64 * 1024;
}  // namespace

SimTableStore::SimTableStore() : SimTableStore(Options{}) {}

SimTableStore::SimTableStore(Options options) : options_(options) {
  small_slots_ = std::min<std::size_t>(kSmallSlabSlots,
                                      std::max<std::size_t>(1, options_.top_k));
  for (auto& stripe : stripes_) stripe = std::make_unique<Stripe>();
}

SimilarVideo* SimTableStore::Arena::Alloc(std::size_t slots,
                                          SizeClass& size_class) {
  std::vector<SimilarVideo*>& free = size_class.free;
  if (!free.empty()) {
    SimilarVideo* slab = free.back();
    free.pop_back();
    return slab;
  }
  // A few slabs first, then double what the class has carved, up to
  // one max-size chunk at a time.
  const std::size_t max_slabs =
      std::max<std::size_t>(1, kMaxChunkBytes / (slots * sizeof(SimilarVideo)));
  const std::size_t slabs = std::min(
      max_slabs,
      size_class.carved == 0 ? kFirstChunkSlabs : size_class.carved);
  auto chunk = std::make_unique<SimilarVideo[]>(slabs * slots);
  SimilarVideo* base = chunk.get();
  bytes += slabs * slots * sizeof(SimilarVideo);
  size_class.carved += slabs;
  chunks.push_back(std::move(chunk));
  // Hand out slab 0; the rest start on the free list.
  free.reserve(free.size() + slabs - 1);
  for (std::size_t i = slabs; i-- > 1;) {
    free.push_back(base + i * slots);
  }
  return base;
}

bool SimTableStore::EnsureRoom(Stripe& stripe, List& list) {
  if (list.size < list.capacity) return true;
  if (list.capacity >= options_.top_k) return false;
  if (list.slots == nullptr) {
    list.slots = stripe.arena.Alloc(small_slots_, stripe.arena.small);
    list.capacity = static_cast<std::uint32_t>(small_slots_);
    return true;
  }
  // Promote small → full: copy live entries, recycle the small slab.
  SimilarVideo* full = stripe.arena.Alloc(options_.top_k, stripe.arena.full);
  std::memcpy(full, list.slots, list.size * sizeof(SimilarVideo));
  stripe.arena.small.free.push_back(list.slots);
  list.slots = full;
  list.capacity = static_cast<std::uint32_t>(options_.top_k);
  return true;
}

double SimTableStore::DecayFactor(Timestamp update_time,
                                  Timestamp now) const {
  const double dt = static_cast<double>(now - update_time);
  if (dt <= 0) return 1.0;  // Future-stamped entries do not grow.
  return std::exp2(-dt / options_.xi_millis);
}

double SimTableStore::Decay(double sim, Timestamp update_time,
                            Timestamp now) const {
  return sim * DecayFactor(update_time, now);
}

bool SimTableStore::Prunable(const SimilarVideo& entry, Timestamp now) const {
  // 2^-y >= 1 - y·ln2 for all y (convexity), so a positive similarity
  // whose linear lower bound already clears the threshold, by a relative
  // margin that absorbs exp2's and this expression's rounding, survives
  // without evaluating exp2. Every other entry takes the exact decay, so
  // the decision always equals Decay(...) < kPruneThreshold.
  const double dt = static_cast<double>(now - entry.update_time);
  if (entry.similarity > 0.0 && dt > 0.0) {
    const double lower =
        entry.similarity * (1.0 - dt / options_.xi_millis * std::numbers::ln2);
    if (lower >= kPruneThreshold + kPruneThreshold * 1e-9) return false;
  }
  return Decay(entry.similarity, entry.update_time, now) < kPruneThreshold;
}

void SimTableStore::Update(VideoId a, VideoId b, double sim, Timestamp now) {
  if (a == b) return;
  UpdateOneDirection(a, b, sim, now);
  UpdateOneDirection(b, a, sim, now);
}

void SimTableStore::UpdateOneDirection(VideoId from, VideoId to, double sim,
                                       Timestamp now) {
  Stripe& stripe = StripeFor(from);
  std::lock_guard<std::mutex> lock(stripe.mu);
  List& list = stripe.map[from];

  // Replace an existing entry for `to`, pruning dead entries on the way.
  bool replaced = false;
  SimilarVideo* entries = list.slots;
  for (std::uint32_t i = 0; i < list.size;) {
    if (entries[i].video == to) {
      entries[i].similarity = sim;
      entries[i].update_time = now;
      replaced = true;
      ++i;
    } else if (Prunable(entries[i], now)) {
      entries[i] = entries[list.size - 1];
      --list.size;
    } else {
      ++i;
    }
  }
  if (replaced) return;

  if (EnsureRoom(stripe, list)) {
    list.slots[list.size++] = SimilarVideo{to, sim, now};
    return;
  }
  // At full capacity: evict the weakest (by decayed similarity) if the
  // newcomer beats it.
  entries = list.slots;
  std::size_t weakest = 0;
  double weakest_sim =
      Decay(entries[0].similarity, entries[0].update_time, now);
  for (std::size_t i = 1; i < list.size; ++i) {
    const double s = Decay(entries[i].similarity, entries[i].update_time, now);
    if (s < weakest_sim) {
      weakest_sim = s;
      weakest = i;
    }
  }
  if (sim > weakest_sim) {
    entries[weakest] = SimilarVideo{to, sim, now};
  }
}

std::vector<SimilarVideo> SimTableStore::Query(VideoId video, Timestamp now,
                                               std::size_t limit) const {
  std::vector<SimilarVideo> out;
  QueryInto(video, now, limit, out);
  return out;
}

void SimTableStore::QueryInto(VideoId video, Timestamp now, std::size_t limit,
                              std::vector<SimilarVideo>& out) const {
  out.clear();
  const Stripe& stripe = StripeFor(video);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.map.find(video);
    if (it == stripe.map.end()) return;
    const List& list = it->second;
    // One action refreshes several of a list's pairs at once, so
    // neighbouring entries often share an update time; their decay
    // factor is computed once (Decay's value, bit for bit).
    Timestamp factor_time = 0;
    double factor = 1.0;
    bool have_factor = false;
    for (std::uint32_t i = 0; i < list.size; ++i) {
      const SimilarVideo& e = list.slots[i];
      if (!have_factor || e.update_time != factor_time) {
        factor_time = e.update_time;
        factor = DecayFactor(e.update_time, now);
        have_factor = true;
      }
      const double s = e.similarity * factor;
      if (s >= kPruneThreshold) {
        out.push_back(SimilarVideo{e.video, s, e.update_time});
      }
    }
  }
  // Ties in decayed similarity are common (one action refreshes several
  // pairs at the same time), and which tied entries survive the `limit`
  // cut is this sort's choice: candidate sets, and so served pages,
  // depend on it, so a partial sort here would change pages.
  std::sort(out.begin(), out.end(),
            [](const SimilarVideo& x, const SimilarVideo& y) {
              return x.similarity > y.similarity;
            });
  if (out.size() > limit) out.resize(limit);
}

double SimTableStore::GetDecayedSimilarity(VideoId a, VideoId b,
                                           Timestamp now) const {
  const Stripe& stripe = StripeFor(a);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(a);
  if (it == stripe.map.end()) return 0.0;
  const List& list = it->second;
  for (std::uint32_t i = 0; i < list.size; ++i) {
    const SimilarVideo& e = list.slots[i];
    if (e.video == b) {
      const double s = Decay(e.similarity, e.update_time, now);
      return s < kPruneThreshold ? 0.0 : s;
    }
  }
  return 0.0;
}

void SimTableStore::ForEachList(
    const std::function<void(VideoId, std::span<const SimilarVideo>)>& fn)
    const {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [id, list] : stripe->map) {
      fn(id, std::span<const SimilarVideo>(list.slots, list.size));
    }
  }
}

void SimTableStore::LoadList(VideoId video,
                             std::vector<SimilarVideo> entries) {
  if (entries.size() > options_.top_k) entries.resize(options_.top_k);
  Stripe& stripe = StripeFor(video);
  std::lock_guard<std::mutex> lock(stripe.mu);
  List& list = stripe.map[video];
  list.size = 0;
  while (list.capacity < entries.size()) {
    if (!EnsureRoom(stripe, list)) break;
    // EnsureRoom grows small→full in one promotion; loop covers the
    // empty→small→full ladder.
    list.size = list.capacity;  // Force the next promotion step if needed.
  }
  list.size = static_cast<std::uint32_t>(
      std::min<std::size_t>(entries.size(), list.capacity));
  if (list.size > 0) {
    std::memcpy(list.slots, entries.data(),
                list.size * sizeof(SimilarVideo));
  }
}

std::size_t SimTableStore::ArenaBytes() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->arena.bytes;
  }
  return total;
}

std::size_t SimTableStore::NumVideos() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [id, list] : stripe->map) {
      if (list.size > 0) ++total;
    }
  }
  return total;
}

}  // namespace rtrec
