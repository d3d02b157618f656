#include "baselines/item_cf.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace rtrec {

namespace {

HistoryStore::Options HistoryOptions(const ItemCfRecommender::Options& o) {
  HistoryStore::Options out;
  out.max_entries_per_user = o.history_per_user;
  return out;
}

}  // namespace

ItemCfRecommender::ItemCfRecommender() : ItemCfRecommender(Options{}) {}

ItemCfRecommender::ItemCfRecommender(Options options)
    : options_(options), history_(HistoryOptions(options)) {}

void ItemCfRecommender::BumpPair(VideoId a, VideoId b) {
  const VideoPair pair(a, b);
  const double count = (pair_count_[pair] += 1.0);
  auto neighbor_list_of = [this](VideoId v) -> TopK<VideoId>& {
    auto it = neighbors_.find(v);
    if (it == neighbors_.end()) {
      it = neighbors_.emplace(v, TopK<VideoId>(options_.top_k)).first;
    }
    return it->second;
  };
  neighbor_list_of(a).Upsert(b, count);
  neighbor_list_of(b).Upsert(a, count);
}

void ItemCfRecommender::Observe(const UserAction& action) {
  const double confidence = ActionConfidence(action, options_.feedback);
  if (confidence < kMinActionConfidence) return;

  const std::vector<HistoryEntry> partners =
      history_.GetRecent(action.user, options_.max_pairs_per_action);
  history_.Append(action.user,
                  HistoryEntry{action.video, confidence, action.time});

  std::lock_guard<std::mutex> lock(mu_);
  item_count_[action.video] += 1.0;
  for (const HistoryEntry& partner : partners) {
    if (partner.video == action.video) continue;
    BumpPair(action.video, partner.video);
  }
}

double ItemCfRecommender::Similarity(VideoId a, VideoId b) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto pair_it = pair_count_.find(VideoPair(a, b));
  if (pair_it == pair_count_.end()) return 0.0;
  auto ca = item_count_.find(a);
  auto cb = item_count_.find(b);
  if (ca == item_count_.end() || cb == item_count_.end()) return 0.0;
  const double denom = std::sqrt(ca->second * cb->second);
  return denom <= 0.0 ? 0.0 : pair_it->second / denom;
}

StatusOr<std::vector<ScoredVideo>> ItemCfRecommender::Recommend(
    const RecRequest& request) {
  const std::size_t n = request.top_n > 0 ? request.top_n : options_.top_n;

  std::vector<VideoId> seeds = request.seed_videos;
  std::unordered_set<VideoId> owned;
  for (const HistoryEntry& e : history_.Get(request.user)) {
    owned.insert(e.video);
  }
  if (seeds.empty()) {
    seeds.assign(owned.begin(), owned.end());
    std::sort(seeds.begin(), seeds.end());  // Deterministic order.
  }
  if (seeds.empty()) return std::vector<ScoredVideo>{};

  std::unordered_map<VideoId, double> scores;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (VideoId seed : seeds) {
      auto it = neighbors_.find(seed);
      if (it == neighbors_.end()) continue;
      auto seed_count = item_count_.find(seed);
      const double c_seed =
          seed_count == item_count_.end() ? 0.0 : seed_count->second;
      if (c_seed <= 0.0) continue;
      for (const auto& entry : it->second.entries()) {
        if (owned.contains(entry.key)) continue;
        auto other_count = item_count_.find(entry.key);
        const double c_other =
            other_count == item_count_.end() ? 0.0 : other_count->second;
        if (c_other <= 0.0) continue;
        scores[entry.key] += entry.score / std::sqrt(c_seed * c_other);
      }
    }
  }

  std::vector<ScoredVideo> out;
  out.reserve(scores.size());
  for (const auto& [video, score] : scores) {
    out.push_back(ScoredVideo{video, score});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredVideo& a, const ScoredVideo& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.video < b.video;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace rtrec
