#ifndef RTREC_KVSTORE_HISTORY_STORE_H_
#define RTREC_KVSTORE_HISTORY_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace rtrec {

/// One remembered interaction of a user: which video, with what confidence
/// weight (Section 3.2), and when.
struct HistoryEntry {
  VideoId video = 0;
  double weight = 0.0;
  Timestamp time = 0;
};

/// Bounded per-user behaviour history, as recorded by the UserHistory bolt
/// (Fig. 2). Histories feed (a) item-pair generation for the similar-video
/// tables and (b) seed selection in the "guess you like" scenario.
/// Hash-sharded; each user's history is one vector of the most recent
/// `max_entries_per_user` interactions, oldest first, whose capacity
/// never exceeds that bound.
class HistoryStore {
 public:
  struct Options {
    /// Per-user retention; the paper only needs recent co-watches.
    std::size_t max_entries_per_user = 64;
  };

  /// Lock stripes (a power of two).
  static constexpr std::size_t kStripes = 16;

  /// Constructs with default options.
  HistoryStore();
  explicit HistoryStore(Options options);

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  /// Appends one interaction for `user`, evicting the oldest entry when
  /// over the bound. If the same video already appears, the old entry is
  /// replaced in place (weight and time refreshed) so the history holds
  /// distinct videos.
  void Append(UserId user, HistoryEntry entry);

  /// Most recent entries for `user`, newest first. Empty if unknown.
  std::vector<HistoryEntry> Get(UserId user) const;

  /// Most recent at most `limit` entries for `user`, newest first.
  std::vector<HistoryEntry> GetRecent(UserId user, std::size_t limit) const;

  /// GetRecent into a caller's buffer: replaces the contents of `out`,
  /// reusing its capacity.
  void GetRecentInto(UserId user, std::size_t limit,
                     std::vector<HistoryEntry>& out) const;

  /// GetRecent followed by Append under one stripe lock: appends to
  /// `recent` the videos of `user`'s most recent at most `limit` entries,
  /// newest first, leaving out `entry.video`; then, if `append`, appends
  /// `entry` (Append's refresh and eviction rules). The UserHistory bolt
  /// fills its partners tuple's vector this way, without a copy.
  void ReadRecentThenAppend(UserId user, std::size_t limit,
                            const HistoryEntry& entry, bool append,
                            std::vector<std::int64_t>& recent);

  /// Number of users with any history.
  std::size_t NumUsers() const;

  /// Drops the history of `user`.
  void Erase(UserId user);

  /// Visits every user's history, oldest entry first (checkpoint save).
  void ForEach(const std::function<void(
                   UserId, const std::vector<HistoryEntry>&)>& fn) const;

  /// Replaces a user's history wholesale, `entries` oldest first
  /// (checkpoint load). Truncated to the per-user bound.
  void LoadUser(UserId user, std::vector<HistoryEntry> entries);

 private:
  struct Stripe {
    mutable std::mutex mu;
    /// Oldest entry first.
    std::unordered_map<UserId, std::vector<HistoryEntry>> map;
  };

  /// Append's body; caller holds the stripe lock.
  void AppendLocked(Stripe& stripe, UserId user, const HistoryEntry& entry);

  Stripe& StripeFor(UserId u) {
    return *stripes_[MixHash64(u) & (kStripes - 1)];
  }
  const Stripe& StripeFor(UserId u) const {
    return *stripes_[MixHash64(u) & (kStripes - 1)];
  }

  Options options_;
  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;
};

}  // namespace rtrec

#endif  // RTREC_KVSTORE_HISTORY_STORE_H_
