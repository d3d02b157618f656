#ifndef RTREC_BASELINES_SIMHASH_CF_H_
#define RTREC_BASELINES_SIMHASH_CF_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/implicit_feedback.h"
#include "core/recommender.h"

namespace rtrec {

/// 64-bit SimHash of a weighted video set: each video hashes to 64 random
/// bits; its weight is added to (bit set) or subtracted from (bit clear)
/// a per-bit accumulator; the sign of each accumulator yields the
/// signature bit. Users with similar watch profiles get signatures at a
/// small Hamming distance.
std::uint64_t ComputeSimHash(
    const std::vector<std::pair<VideoId, double>>& weighted_videos);

/// Hamming similarity in [0, 1]: 1 − popcount(a ⊕ b)/64.
double HammingSimilarity(std::uint64_t a, std::uint64_t b);

/// SimHash cosine estimate: each agreeing bit is evidence the profile
/// angle θ is small, P(bit equal) = 1 − θ/π, so cos θ ≈ cos(π(1 − sim)).
/// Uncorrelated profiles (sim ≈ 0.5) estimate ≈ 0, which is what makes
/// this the right neighbour weight (raw Hamming similarity of random
/// pairs is 0.5, not 0).
double CosineFromSimHash(std::uint64_t a, std::uint64_t b);

/// The "SimHash method" of Section 6.2: user-based collaborative
/// filtering accelerated by SimHash signatures [Charikar'02] with banded
/// LSH lookup, retrained at regular intervals (offline baseline).
///
/// Serving: candidate neighbours are users sharing at least one signature
/// band; the request user's score for video v is the sum over neighbours
/// who engaged v of HammingSimilarity(user, neighbour) · weight.
class SimHashCfRecommender : public Recommender {
 public:
  /// LSH bands of 64 / kNumBands signature bits each.
  static constexpr std::size_t kNumBands = 8;
  /// Neighbours actually scored per request.
  static constexpr std::size_t kMaxNeighbors = 32;
  /// Per-user profile size cap.
  static constexpr std::size_t kMaxProfile = 64;
  /// Actions below this confidence do not enter profiles.
  static constexpr double kMinActionConfidence = 1.0;

  struct Options {
    std::size_t top_n = 10;
    FeedbackConfig feedback;
  };

  /// Constructs with default options.
  SimHashCfRecommender();
  explicit SimHashCfRecommender(Options options);

  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Buffers the action into the user's profile (no signature rebuild).
  void Observe(const UserAction& action) override;

  /// Rebuilds all signatures and LSH buckets (the periodic offline
  /// training the paper contrasts with rMF).
  void RetrainBatch(Timestamp now) override;

  std::string name() const override { return "SimHash"; }

  /// Signature of `user` from the last retrain, or 0.
  std::uint64_t GetSignature(UserId user) const;

 private:
  static std::uint64_t BandKey(std::uint64_t signature, std::size_t band);

  Options options_;

  mutable std::mutex mu_;
  // Accumulated profiles: user -> (video -> max confidence).
  std::unordered_map<UserId, std::unordered_map<VideoId, double>> profiles_;
  // Built at retrain:
  std::unordered_map<UserId, std::uint64_t> signatures_;
  // band index -> band value -> users.
  std::array<std::unordered_map<std::uint64_t, std::vector<UserId>>,
             kNumBands>
      buckets_;
};

}  // namespace rtrec

#endif  // RTREC_BASELINES_SIMHASH_CF_H_
