#include "baselines/simhash_cf.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace rtrec {

std::uint64_t ComputeSimHash(
    const std::vector<std::pair<VideoId, double>>& weighted_videos) {
  double acc[64] = {0.0};
  for (const auto& [video, weight] : weighted_videos) {
    const std::uint64_t h = MixHash64(video + 0x5153494D48415348ull);
    for (int b = 0; b < 64; ++b) {
      acc[b] += ((h >> b) & 1u) ? weight : -weight;
    }
  }
  std::uint64_t signature = 0;
  for (int b = 0; b < 64; ++b) {
    if (acc[b] > 0) signature |= (1ull << b);
  }
  return signature;
}

double HammingSimilarity(std::uint64_t a, std::uint64_t b) {
  return 1.0 - static_cast<double>(std::popcount(a ^ b)) / 64.0;
}

double CosineFromSimHash(std::uint64_t a, std::uint64_t b) {
  return std::cos(M_PI * (1.0 - HammingSimilarity(a, b)));
}

SimHashCfRecommender::SimHashCfRecommender()
    : SimHashCfRecommender(Options{}) {}

SimHashCfRecommender::SimHashCfRecommender(Options options)
    : options_(options) {
  assert(options_.num_bands > 0 && 64 % options_.num_bands == 0);
  buckets_.resize(options_.num_bands);
}

std::uint64_t SimHashCfRecommender::BandKey(std::uint64_t signature,
                                            std::size_t band) const {
  const std::size_t band_bits = 64 / options_.num_bands;
  const std::uint64_t mask =
      band_bits == 64 ? ~0ull : ((1ull << band_bits) - 1);
  return (signature >> (band * band_bits)) & mask;
}

void SimHashCfRecommender::Observe(const UserAction& action) {
  const double confidence = ActionConfidence(action, options_.feedback);
  if (confidence < options_.min_action_confidence) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto& profile = profiles_[action.user];
  auto it = profile.find(action.video);
  if (it != profile.end()) {
    it->second = std::max(it->second, confidence);
  } else if (profile.size() < options_.max_profile) {
    profile.emplace(action.video, confidence);
  }
}

void SimHashCfRecommender::RetrainBatch(Timestamp now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  signatures_.clear();
  for (auto& bucket : buckets_) bucket.clear();

  std::vector<std::pair<VideoId, double>> weighted;
  for (const auto& [user, profile] : profiles_) {
    weighted.assign(profile.begin(), profile.end());
    const std::uint64_t signature = ComputeSimHash(weighted);
    signatures_[user] = signature;
    for (std::size_t band = 0; band < options_.num_bands; ++band) {
      buckets_[band][BandKey(signature, band)].push_back(user);
    }
  }
}

StatusOr<std::vector<ScoredVideo>> SimHashCfRecommender::Recommend(
    const RecRequest& request) {
  const std::size_t n = request.top_n > 0 ? request.top_n : options_.top_n;

  std::lock_guard<std::mutex> lock(mu_);
  auto sig_it = signatures_.find(request.user);
  if (sig_it == signatures_.end()) {
    return std::vector<ScoredVideo>{};  // Untrained / unseen user.
  }
  const std::uint64_t signature = sig_it->second;

  // LSH candidate lookup: users sharing at least one band value.
  std::unordered_set<UserId> candidates;
  for (std::size_t band = 0; band < options_.num_bands; ++band) {
    auto it = buckets_[band].find(BandKey(signature, band));
    if (it == buckets_[band].end()) continue;
    for (UserId u : it->second) {
      if (u != request.user) candidates.insert(u);
    }
  }
  if (candidates.empty()) return std::vector<ScoredVideo>{};

  // Rank neighbours by exact Hamming similarity, keep the closest.
  std::vector<std::pair<UserId, double>> neighbors;
  neighbors.reserve(candidates.size());
  for (UserId u : candidates) {
    neighbors.emplace_back(u, HammingSimilarity(signature, signatures_[u]));
  }
  std::sort(neighbors.begin(), neighbors.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (neighbors.size() > options_.max_neighbors) {
    neighbors.resize(options_.max_neighbors);
  }

  const auto& own_profile = profiles_[request.user];
  std::unordered_map<VideoId, double> scores;
  for (const auto& [neighbor, sim] : neighbors) {
    // Estimated profile cosine; uncorrelated neighbours contribute ~0.
    const double weight_base =
        std::max(0.0, CosineFromSimHash(signature, signatures_[neighbor]));
    if (weight_base <= 0.0) continue;
    auto profile_it = profiles_.find(neighbor);
    if (profile_it == profiles_.end()) continue;
    for (const auto& [video, weight] : profile_it->second) {
      if (own_profile.contains(video)) continue;
      (void)sim;
      scores[video] += weight_base * weight;
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

std::uint64_t SimHashCfRecommender::GetSignature(UserId user) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = signatures_.find(user);
  return it == signatures_.end() ? 0 : it->second;
}

}  // namespace rtrec
