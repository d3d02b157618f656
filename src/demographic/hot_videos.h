#ifndef RTREC_DEMOGRAPHIC_HOT_VIDEOS_H_
#define RTREC_DEMOGRAPHIC_HOT_VIDEOS_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/top_k.h"
#include "common/types.h"
#include "core/recommender.h"

namespace rtrec {

/// Tracks the most popular ("hot") videos per demographic group with an
/// exponentially time-decayed engagement score — the demographic-based
/// (DB) algorithm of Section 5.2.1. kGlobalGroup tracks global
/// popularity, used for brand-new unregistered users.
///
/// Decay is forward decay (Cormode et al., ICDE 2009): a hit at time t
/// adds w·2^((t−L)/half_life) to the raw score, so all of a group's raw
/// scores share one landmark L and relative order equals decayed order
/// without rescans. L starts at 0. Once a hit lands more than
/// kRescaleHalfLives after it, Record rescales the group's scores by
/// 2^−k and advances L by k half-lives, so raw scores stay finite at any
/// clock, epoch milliseconds included. Thread-safe (one mutex per group).
class HotVideoTracker {
 public:
  struct Options {
    /// Length of each hot list.
    std::size_t top_k = 100;
    /// Popularity half-life in milliseconds.
    double half_life_millis = 1.0 * kMillisPerDay;
  };

  /// Constructs with default options.
  HotVideoTracker();
  explicit HotVideoTracker(Options options);

  HotVideoTracker(const HotVideoTracker&) = delete;
  HotVideoTracker& operator=(const HotVideoTracker&) = delete;

  /// Records engagement `weight` on `video` in `group` at time `now`.
  /// Callers typically record both in the user's group and in
  /// kGlobalGroup.
  void Record(GroupId group, VideoId video, double weight, Timestamp now);

  /// The group's hottest videos at `now`, best first, scores decayed to
  /// `now` (comparable across groups). A `now` before the group's
  /// landmark reads the scores as of the landmark.
  std::vector<ScoredVideo> Hottest(GroupId group, std::size_t n,
                                   Timestamp now) const;

  /// The hot page a request gets: `group`'s hottest videos, or the
  /// global list when the group has none left (the rule the paper
  /// applies to new unregistered users), with `seeds` removed — a page
  /// never repeats the video the user is on — and cut to `n`. The list
  /// is fetched `seeds.size()` longer so it still offers `n` videos.
  std::vector<ScoredVideo> HotPage(GroupId group, std::size_t n,
                                   Timestamp now,
                                   const std::vector<VideoId>& seeds) const;

  const Options& options() const { return options_; }

 private:
  /// Half-lives past the landmark after which Record moves it; far
  /// below the 1024 at which 2^age overflows a double.
  static constexpr double kRescaleHalfLives = 256.0;

  struct GroupState {
    mutable std::mutex mu;
    TopK<VideoId> top;
    /// Forward-decay landmark L in milliseconds. Guarded by `mu`.
    double landmark = 0.0;
    GroupState(std::size_t k) : top(k) {}
  };

  GroupState& StateFor(GroupId group);
  const GroupState* FindState(GroupId group) const;

  /// Half-lives from the group's landmark to `now`. Caller holds `mu`.
  double Age(const GroupState& state, Timestamp now) const;

  Options options_;
  mutable std::mutex groups_mu_;  // Guards the group map only.
  std::unordered_map<GroupId, std::unique_ptr<GroupState>> groups_;
};

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_HOT_VIDEOS_H_
