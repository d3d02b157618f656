#ifndef RTREC_DATA_DATASET_H_
#define RTREC_DATA_DATASET_H_

#include <string>
#include <utility>
#include <vector>

#include "core/action.h"
#include "core/implicit_feedback.h"
#include "demographic/grouper.h"

namespace rtrec {

/// Summary statistics of an action log — the columns of Tables 3 and 4.
struct DatasetStats {
  std::size_t num_users = 0;
  std::size_t num_videos = 0;
  /// Engaged (non-impression) actions, the paper's "Actions" column.
  std::size_t num_actions = 0;
  /// #Actions / (#Users · #Videos), in percent (Table 4's Sparsity).
  double sparsity_percent = 0.0;

  std::string ToString() const;
};

/// An immutable, time-ordered action log with the cleaning/splitting
/// operations of Section 6.1: activity filtering ("reserve users who have
/// more than 50 actions and videos with more than 50 related actions")
/// and the 6-day/1-day train/test split.
class Dataset {
 public:
  Dataset() = default;

  /// Takes ownership of `actions`; sorts by time if needed.
  explicit Dataset(std::vector<UserAction> actions);

  const std::vector<UserAction>& actions() const { return actions_; }
  std::size_t size() const { return actions_.size(); }
  bool empty() const { return actions_.empty(); }

  /// Keeps only users with >= `min_user_actions` engaged actions and
  /// videos with >= `min_video_actions` engaged actions. One pass each,
  /// applied user-filter-then-video-filter (as the paper describes, not a
  /// fixpoint iteration).
  Dataset FilterMinActivity(std::size_t min_user_actions,
                            std::size_t min_video_actions) const;

  /// Splits at an absolute time: actions with time < `split_millis` go to
  /// .first (train), the rest to .second (test).
  std::pair<Dataset, Dataset> SplitAtTime(Timestamp split_millis) const;

  /// Keeps only actions of users in demographic `group` per `grouper`.
  Dataset FilterGroup(const DemographicGrouper& grouper,
                      GroupId group) const;

  /// Table 3/4 statistics. Counts engaged actions only and the distinct
  /// users/videos appearing in them.
  DatasetStats Stats(const FeedbackConfig& feedback) const;

 private:
  std::vector<UserAction> actions_;
};

}  // namespace rtrec

#endif  // RTREC_DATA_DATASET_H_
