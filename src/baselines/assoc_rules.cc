#include "baselines/assoc_rules.h"

#include <algorithm>

namespace rtrec {

namespace {

std::uint64_t BasketKey(UserId user, Timestamp time) {
  const std::uint64_t day =
      static_cast<std::uint64_t>(time / kMillisPerDay);
  return MixHash64(user) ^ day;
}

}  // namespace

AssociationRuleRecommender::AssociationRuleRecommender()
    : AssociationRuleRecommender(Options{}) {}

AssociationRuleRecommender::AssociationRuleRecommender(Options options)
    : options_(options) {}

void AssociationRuleRecommender::Observe(const UserAction& action) {
  const double confidence = ActionConfidence(action, options_.feedback);
  if (confidence < kMinActionConfidence) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto& basket = baskets_[BasketKey(action.user, action.time)];
  if (basket.size() < kMaxBasket) basket.insert(action.video);

  auto& recent = recent_[action.user];
  if (std::find(recent.begin(), recent.end(), action.video) == recent.end()) {
    recent.push_back(action.video);
    if (recent.size() > 16) recent.erase(recent.begin());
  }
}

void AssociationRuleRecommender::RetrainBatch(Timestamp now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);

  std::unordered_map<VideoId, std::size_t> item_count;
  std::unordered_map<VideoPair, std::size_t, VideoPairHash> pair_count;
  std::size_t num_baskets = 0;
  for (const auto& [key, basket] : baskets_) {
    if (basket.empty()) continue;
    ++num_baskets;
    std::vector<VideoId> items(basket.begin(), basket.end());
    // Deterministic pair enumeration regardless of set iteration order.
    std::sort(items.begin(), items.end());
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++item_count[items[i]];
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        ++pair_count[VideoPair(items[i], items[j])];
      }
    }
  }

  rules_.clear();
  if (num_baskets == 0) return;
  for (const auto& [pair, count] : pair_count) {
    if (count < options_.min_support_count) continue;
    const double support =
        static_cast<double>(count) / static_cast<double>(num_baskets);
    // Rules in both directions, each with its own confidence.
    const double conf_ab = static_cast<double>(count) /
                           static_cast<double>(item_count[pair.first]);
    const double conf_ba = static_cast<double>(count) /
                           static_cast<double>(item_count[pair.second]);
    const double p_first = static_cast<double>(item_count[pair.first]) /
                           static_cast<double>(num_baskets);
    const double p_second = static_cast<double>(item_count[pair.second]) /
                            static_cast<double>(num_baskets);
    if (conf_ab >= options_.min_confidence) {
      rules_[pair.first].push_back(
          Rule{pair.second, conf_ab, support, conf_ab / p_second});
    }
    if (conf_ba >= options_.min_confidence) {
      rules_[pair.second].push_back(
          Rule{pair.first, conf_ba, support, conf_ba / p_first});
    }
  }
  const bool use_lift = options_.use_lift;
  for (auto& [antecedent, rule_list] : rules_) {
    std::sort(rule_list.begin(), rule_list.end(),
              [use_lift](const Rule& a, const Rule& b) {
                const double sa = use_lift ? a.lift : a.confidence;
                const double sb = use_lift ? b.lift : b.confidence;
                if (sa != sb) return sa > sb;
                return a.consequent < b.consequent;
              });
    if (rule_list.size() > kMaxRulesPerVideo) {
      rule_list.resize(kMaxRulesPerVideo);
    }
  }
}

StatusOr<std::vector<ScoredVideo>> AssociationRuleRecommender::Recommend(
    const RecRequest& request) {
  const std::size_t n = request.top_n > 0 ? request.top_n : options_.top_n;

  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VideoId> seeds = request.seed_videos;
  std::unordered_set<VideoId> owned;
  if (auto it = recent_.find(request.user); it != recent_.end()) {
    owned.insert(it->second.begin(), it->second.end());
    if (seeds.empty()) seeds = it->second;
  }
  if (seeds.empty()) return std::vector<ScoredVideo>{};

  std::unordered_map<VideoId, double> scores;
  for (VideoId seed : seeds) {
    auto it = rules_.find(seed);
    if (it == rules_.end()) continue;
    for (const Rule& rule : it->second) {
      if (owned.contains(rule.consequent)) continue;
      scores[rule.consequent] +=
          options_.use_lift ? rule.lift : rule.confidence;
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

std::size_t AssociationRuleRecommender::NumAntecedents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size();
}

bool AssociationRuleRecommender::IsConsequent(VideoId video) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [antecedent, rule_list] : rules_) {
    for (const Rule& rule : rule_list) {
      if (rule.consequent == video) return true;
    }
  }
  return false;
}

}  // namespace rtrec
