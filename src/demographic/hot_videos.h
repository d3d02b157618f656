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
/// Decay uses the standard normalized-score trick: a hit at time t adds
/// w·2^(t/half_life) to the raw score, so all raw scores share one
/// reference epoch (t = 0) and relative order equals decayed order
/// without rescans. Thread-safe (one mutex per group).
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
  /// `now` (comparable across groups).
  std::vector<ScoredVideo> Hottest(GroupId group, std::size_t n,
                                   Timestamp now) const;

  const Options& options() const { return options_; }

 private:
  struct GroupState {
    mutable std::mutex mu;
    TopK<VideoId> top;
    GroupState(std::size_t k) : top(k) {}
  };

  GroupState& StateFor(GroupId group);
  const GroupState* FindState(GroupId group) const;

  /// Normalized score increment for weight at `now`.
  double NormalizedIncrement(double weight, Timestamp now) const;

  Options options_;
  mutable std::mutex groups_mu_;  // Guards the group map only.
  std::unordered_map<GroupId, std::unique_ptr<GroupState>> groups_;
};

/// Recommender facade over a HotVideoTracker group — the "Hot method" of
/// Section 6.2 when bound to kGlobalGroup.
class HotRecommenderView : public Recommender {
 public:
  /// `tracker` is shared, not owned.
  HotRecommenderView(HotVideoTracker* tracker, GroupId group,
                     std::size_t top_n);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  std::string name() const override { return "Hot"; }

 private:
  HotVideoTracker* tracker_;
  GroupId group_;
  std::size_t top_n_;
};

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_HOT_VIDEOS_H_
