#ifndef RTREC_KVSTORE_SIM_TABLE_STORE_H_
#define RTREC_KVSTORE_SIM_TABLE_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace rtrec {

/// One neighbour in a video's similar-video list: the fused similarity
/// sim_ij = (1-β)·s1 + β·s2 *as of `update_time`* (Eq. 12). The time-decay
/// factor d_ij = 2^(-Δt/ξ) (Eq. 11) is applied at read time from
/// `update_time`, so similarity fades continuously without background
/// sweeps.
struct SimilarVideo {
  VideoId video = 0;
  double similarity = 0.0;
  Timestamp update_time = 0;
};

/// The similar-video tables of Section 4: for each video, the top-K most
/// relevant videos. Maintained incrementally by the ItemPairSim /
/// ResultStorage bolts and queried on every recommendation request to
/// select candidates. Hash-sharded; each per-video list is bounded.
///
/// Lists live in per-stripe slab arenas rather than one heap vector per
/// video: a list occupies a fixed-capacity slab carved from a chunk,
/// starting in a small slab (kSmallSlabSlots slots) and promoted to a
/// full top_k slab the first time it fills. Chunks grow geometrically per
/// stripe and size class: the first holds kFirstChunkSlabs slabs, each
/// later one as many slabs as the class has carved so far (doubling it),
/// capped at 64KB. So a sparse table costs a few slabs per stripe, a
/// dense one stays within 2x its peak live slabs, and a big one still
/// pays one malloc per ~64KB. Slabs are recycled through per-class free
/// lists. At million-video scale this removes the per-list malloc plus
/// the 1→2→4→… realloc ladder, keeps neighbours contiguous, and makes
/// table memory a closed-form number (ArenaBytes) instead of allocator
/// guesswork.
class SimTableStore {
 public:
  /// Slots of a small-class slab (a list's first slab), at most top_k.
  static constexpr std::size_t kSmallSlabSlots = 8;
  /// Slabs in a stripe's first chunk of either size class.
  static constexpr std::size_t kFirstChunkSlabs = 4;
  /// Lock stripes (a power of two); each owns its own slab arena.
  static constexpr std::size_t kStripes = 16;
  /// Entries whose decayed similarity drops below this are pruned on
  /// touch, and Query and GetDecayedSimilarity read them as absent.
  static constexpr double kPruneThreshold = 1e-4;

  struct Options {
    /// Per-video list length K (candidate pool per seed).
    std::size_t top_k = 50;
    /// Half-life ξ of the time decay, in milliseconds (Eq. 11).
    double xi_millis = 3.0 * kMillisPerDay;
  };

  /// Constructs with default options.
  SimTableStore();
  explicit SimTableStore(Options options);

  SimTableStore(const SimTableStore&) = delete;
  SimTableStore& operator=(const SimTableStore&) = delete;

  /// Records that the pair (a, b) has fused similarity `sim` as of `now`.
  /// Updates both directions (b appears in a's list and vice versa).
  /// An existing entry for the pair is replaced — per the paper, the
  /// similarity of a pair is recomputed from scratch whenever a new action
  /// touches it, and its decay clock restarts.
  void Update(VideoId a, VideoId b, double sim, Timestamp now);

  /// Returns up to `limit` neighbours of `video`, ranked by decayed
  /// similarity at `now`, i.e. sim · 2^(-(now - update_time)/ξ).
  /// Prunes entries that decayed below the threshold.
  std::vector<SimilarVideo> Query(VideoId video, Timestamp now,
                                  std::size_t limit) const;

  /// Query into a caller's buffer: replaces the contents of `out` with
  /// the same entries in the same order, reusing its capacity, so a
  /// buffer kept across calls allocates nothing once it has grown.
  void QueryInto(VideoId video, Timestamp now, std::size_t limit,
                 std::vector<SimilarVideo>& out) const;

  /// Decayed similarity of the (a, b) pair at `now`, or 0 if unknown.
  double GetDecayedSimilarity(VideoId a, VideoId b, Timestamp now) const;

  /// Number of videos having a non-empty list.
  std::size_t NumVideos() const;

  /// Visits every per-video directed list (checkpoint save path). Locks
  /// one stripe at a time; the span borrows the arena slab and is valid
  /// only inside the callback.
  void ForEachList(const std::function<void(
                       VideoId, std::span<const SimilarVideo>)>& fn) const;

  /// Replaces the directed list of `video` wholesale (checkpoint load
  /// path). Entries beyond top_k are dropped.
  void LoadList(VideoId video, std::vector<SimilarVideo> entries);

  /// Bytes of slab-arena chunk memory across all stripes (allocated
  /// capacity, including free-listed slabs; excludes the per-video hash
  /// map itself). Each stripe's size class carves at most
  /// max(kFirstChunkSlabs, 2 x its peak live slabs).
  std::size_t ArenaBytes() const;

  const Options& options() const { return options_; }

 private:
  /// A list is a borrowed slab of `capacity` slots (small class first,
  /// full top_k class after promotion) with `size` of them live. Entries
  /// are unordered; ranking happens at query time.
  struct List {
    SimilarVideo* slots = nullptr;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// One slab width's share of an arena: its free slabs and how many
  /// slabs it has carved, which sizes its next chunk.
  struct SizeClass {
    std::vector<SimilarVideo*> free;
    std::size_t carved = 0;
  };

  /// Per-stripe slab allocator, guarded by the stripe mutex. Chunks are
  /// never returned to the OS; released slabs recycle via free lists.
  struct Arena {
    std::vector<std::unique_ptr<SimilarVideo[]>> chunks;
    SizeClass small;
    SizeClass full;
    std::size_t bytes = 0;

    SimilarVideo* Alloc(std::size_t slots, SizeClass& size_class);
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<VideoId, List> map;
    Arena arena;
  };

  /// Grows `list` to hold one more entry, allocating its first small
  /// slab or promoting small→full as needed. Caller holds the stripe
  /// lock. Returns false when the list is already at top_k capacity.
  bool EnsureRoom(Stripe& stripe, List& list);

  void UpdateOneDirection(VideoId from, VideoId to, double sim,
                          Timestamp now);
  /// d_ij = 2^(-Δt/ξ) of Eq. 11, 1 for a future-stamped entry.
  double DecayFactor(Timestamp update_time, Timestamp now) const;
  /// sim · DecayFactor(update_time, now).
  double Decay(double sim, Timestamp update_time, Timestamp now) const;
  /// Decay(entry, now) < kPruneThreshold, skipping exp2 where a lower
  /// bound on the decay already decides it.
  bool Prunable(const SimilarVideo& entry, Timestamp now) const;

  /// The stripe index of `video`.
  static std::size_t StripeOf(VideoId v) {
    return MixHash64(v) & (kStripes - 1);
  }
  Stripe& StripeFor(VideoId v) { return *stripes_[StripeOf(v)]; }
  const Stripe& StripeFor(VideoId v) const { return *stripes_[StripeOf(v)]; }

  Options options_;
  /// Small-class slab width: full lists are rare in sparse catalogs, so
  /// new lists start at min(kSmallSlabSlots, top_k) slots.
  std::size_t small_slots_ = 0;
  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;
};

}  // namespace rtrec

#endif  // RTREC_KVSTORE_SIM_TABLE_STORE_H_
