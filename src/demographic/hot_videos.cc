#include "demographic/hot_videos.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rtrec {

HotVideoTracker::HotVideoTracker() : HotVideoTracker(Options{}) {}

HotVideoTracker::HotVideoTracker(Options options) : options_(options) {
  assert(options_.top_k > 0);
  assert(options_.half_life_millis > 0);
}

HotVideoTracker::GroupState& HotVideoTracker::StateFor(GroupId group) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto& slot = groups_[group];
  if (!slot) slot = std::make_unique<GroupState>(options_.top_k);
  return *slot;
}

const HotVideoTracker::GroupState* HotVideoTracker::FindState(
    GroupId group) const {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

double HotVideoTracker::Age(const GroupState& state, Timestamp now) const {
  return (static_cast<double>(now) - state.landmark) /
         options_.half_life_millis;
}

void HotVideoTracker::Record(GroupId group, VideoId video, double weight,
                             Timestamp now) {
  if (weight <= 0.0) return;
  GroupState& state = StateFor(group);
  std::lock_guard<std::mutex> lock(state.mu);
  double age = Age(state, now);
  if (age > kRescaleHalfLives) {
    // Move the landmark a whole number of half-lives forward. Scores
    // decayed past 2^−1074 underflow to 0, which is their value at `now`.
    const double k = std::floor(age);
    const double scale = std::exp2(-k);
    state.top.TransformScores([scale](double score) { return score * scale; });
    state.landmark += k * options_.half_life_millis;
    age = Age(state, now);
  }
  const double increment = weight * std::exp2(age);
  const double* existing = state.top.Find(video);
  state.top.Upsert(video, (existing ? *existing : 0.0) + increment);
}

std::vector<ScoredVideo> HotVideoTracker::Hottest(GroupId group,
                                                  std::size_t n,
                                                  Timestamp now) const {
  const GroupState* state = FindState(group);
  if (state == nullptr) return {};
  std::vector<ScoredVideo> out;
  std::lock_guard<std::mutex> lock(state->mu);
  // Convert normalized scores back to decayed-at-now scores. A `now`
  // more than 1024 half-lives before the landmark would divide by
  // exp2(age) == 0, so a clock behind the landmark reads as the landmark.
  const double denom = std::exp2(std::max(0.0, Age(*state, now)));
  const auto& entries = state->top.entries();
  out.reserve(std::min(n, entries.size()));
  for (std::size_t i = 0; i < entries.size() && i < n; ++i) {
    out.push_back(ScoredVideo{entries[i].key, entries[i].score / denom});
  }
  return out;
}

std::vector<ScoredVideo> HotVideoTracker::HotPage(
    GroupId group, std::size_t n, Timestamp now,
    const std::vector<VideoId>& seeds) const {
  const auto page = [&](GroupId g) {
    std::vector<ScoredVideo> hot = Hottest(g, n + seeds.size(), now);
    std::erase_if(hot, [&seeds](const ScoredVideo& v) {
      return std::find(seeds.begin(), seeds.end(), v.video) != seeds.end();
    });
    if (hot.size() > n) hot.resize(n);
    return hot;
  };
  std::vector<ScoredVideo> hot = page(group);
  if (hot.empty() && group != kGlobalGroup) hot = page(kGlobalGroup);
  return hot;
}

}  // namespace rtrec
