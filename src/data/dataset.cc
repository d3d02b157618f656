#include "data/dataset.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace rtrec {

std::string DatasetStats::ToString() const {
  return StringPrintf("users=%s videos=%s actions=%s sparsity=%.3f%%",
                      FormatCount(num_users).c_str(),
                      FormatCount(num_videos).c_str(),
                      FormatCount(num_actions).c_str(), sparsity_percent);
}

Dataset::Dataset(std::vector<UserAction> actions)
    : actions_(std::move(actions)) {
  if (!std::is_sorted(actions_.begin(), actions_.end(),
                      [](const UserAction& a, const UserAction& b) {
                        return a.time < b.time;
                      })) {
    std::stable_sort(actions_.begin(), actions_.end(),
                     [](const UserAction& a, const UserAction& b) {
                       return a.time < b.time;
                     });
  }
}

Dataset Dataset::FilterMinActivity(std::size_t min_user_actions,
                                   std::size_t min_video_actions) const {
  // Engagement counts: impressions are delivery, not user activity.
  std::unordered_map<UserId, std::size_t> user_count;
  for (const UserAction& a : actions_) {
    if (a.type != ActionType::kImpress) ++user_count[a.user];
  }
  std::unordered_map<VideoId, std::size_t> video_count;
  for (const UserAction& a : actions_) {
    if (a.type == ActionType::kImpress) continue;
    if (user_count[a.user] >= min_user_actions) ++video_count[a.video];
  }
  std::vector<UserAction> kept;
  kept.reserve(actions_.size());
  for (const UserAction& a : actions_) {
    auto uc = user_count.find(a.user);
    if (uc == user_count.end() || uc->second < min_user_actions) continue;
    auto vc = video_count.find(a.video);
    if (vc == video_count.end() || vc->second < min_video_actions) continue;
    kept.push_back(a);
  }
  return Dataset(std::move(kept));
}

std::pair<Dataset, Dataset> Dataset::SplitAtTime(
    Timestamp split_millis) const {
  std::vector<UserAction> train;
  std::vector<UserAction> test;
  for (const UserAction& a : actions_) {
    (a.time < split_millis ? train : test).push_back(a);
  }
  return {Dataset(std::move(train)), Dataset(std::move(test))};
}

Dataset Dataset::FilterGroup(const DemographicGrouper& grouper,
                             GroupId group) const {
  std::vector<UserAction> kept;
  for (const UserAction& a : actions_) {
    if (grouper.GroupOf(a.user) == group) kept.push_back(a);
  }
  return Dataset(std::move(kept));
}

DatasetStats Dataset::Stats(const FeedbackConfig& feedback) const {
  DatasetStats stats;
  std::unordered_set<UserId> users;
  std::unordered_set<VideoId> videos;
  for (const UserAction& a : actions_) {
    if (ActionConfidence(a, feedback) <= 0.0) continue;
    ++stats.num_actions;
    users.insert(a.user);
    videos.insert(a.video);
  }
  stats.num_users = users.size();
  stats.num_videos = videos.size();
  if (!users.empty() && !videos.empty()) {
    stats.sparsity_percent = 100.0 * static_cast<double>(stats.num_actions) /
                             (static_cast<double>(users.size()) *
                              static_cast<double>(videos.size()));
  }
  return stats;
}

}  // namespace rtrec
