#include "demographic/demographic_filter.h"

#include <cassert>
#include <cmath>

#include "core/implicit_feedback.h"

namespace rtrec {

DemographicFilter::DemographicFilter(Recommender* primary,
                                     HotVideoTracker* tracker,
                                     const DemographicGrouper* grouper,
                                     Options options)
    : primary_(primary),
      tracker_(tracker),
      grouper_(grouper),
      options_(options) {
  assert(primary_ != nullptr);
  assert(tracker_ != nullptr);
  assert(grouper_ != nullptr);
  assert(options_.blend_ratio >= 0.0 && options_.blend_ratio <= 1.0);
}

std::vector<ScoredVideo> DemographicFilter::Merge(
    const std::vector<ScoredVideo>& primary,
    const std::vector<ScoredVideo>& hot, std::size_t n, double blend_ratio) {
  std::vector<ScoredVideo> out;
  out.reserve(n);
  // A page holds at most n videos, so a scan of the picks so far dedupes
  // without a hash set.
  const auto add = [&out](const ScoredVideo& v) {
    for (const ScoredVideo& picked : out) {
      if (picked.video == v.video) return;
    }
    out.push_back(v);
  };

  const std::size_t hot_slots = static_cast<std::size_t>(
      std::llround(blend_ratio * static_cast<double>(n)));
  const std::size_t primary_slots = n - hot_slots;

  for (const ScoredVideo& v : primary) {
    if (out.size() >= primary_slots) break;
    add(v);
  }
  for (const ScoredVideo& v : hot) {
    if (out.size() >= n) break;
    add(v);
  }
  // Shortfall (hot list exhausted): fill from remaining primary results.
  for (const ScoredVideo& v : primary) {
    if (out.size() >= n) break;
    add(v);
  }
  return out;
}

StatusOr<std::vector<ScoredVideo>> DemographicFilter::Recommend(
    const RecRequest& request) {
  const std::size_t n = request.top_n > 0 ? request.top_n : options_.top_n;

  StatusOr<std::vector<ScoredVideo>> primary = primary_->Recommend(request);
  if (!primary.ok()) return primary.status();

  // RecommendationService::FallbackRecommend serves this same page.
  const std::vector<ScoredVideo> hot = tracker_->HotPage(
      grouper_->GroupOf(request.user), n, request.now, request.seed_videos);

  if (primary->size() < options_.min_primary_results) {
    // Cold start: the MF path cannot produce enough efficient
    // recommendations; rely on the demographic group (Section 5.2.1).
    return Merge(*primary, hot, n, /*blend_ratio=*/1.0);
  }
  return Merge(*primary, hot, n, options_.blend_ratio);
}

void DemographicFilter::Observe(const UserAction& action) {
  primary_->Observe(action);
  // Hot tracking uses a neutral confidence (click-equivalent weighting):
  // any engaged action counts toward popularity.
  const double weight = action.type == ActionType::kImpress ? 0.0 : 1.0;
  if (weight > 0.0) {
    const GroupId group = grouper_->GroupOf(action.user);
    if (group != kGlobalGroup) {
      tracker_->Record(group, action.video, weight, action.time);
    }
    tracker_->Record(kGlobalGroup, action.video, weight, action.time);
  }
}

}  // namespace rtrec
