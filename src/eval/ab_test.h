#ifndef RTREC_EVAL_AB_TEST_H_
#define RTREC_EVAL_AB_TEST_H_

#include <string>
#include <vector>

#include "core/recommender.h"
#include "data/event_generator.h"

namespace rtrec {

/// The A/B arm a user is hashed into. This is THE arm identity for the
/// whole system: the offline harness below and the live QualityMonitor
/// CTR join both call it, so a user lands in the same arm offline and
/// online. Header-only so non-eval code can use it without linking the
/// harness.
inline std::size_t AbArmOf(UserId user, std::size_t num_arms) {
  return static_cast<std::size_t>(MixHash64(user ^ 0xAB7E57ull) % num_arms);
}

/// Daily CTR series of one A/B arm (one line of Figure 7).
struct ArmResult {
  std::string name;
  std::vector<double> daily_ctr;
  std::uint64_t impressions = 0;
  std::uint64_t clicks = 0;
  /// Recommendation requests served to this arm's users (measured days).
  std::uint64_t requests = 0;
  /// Requests answered with an empty page (no recommendations) — the
  /// cold-start failure mode demographic filtering eliminates.
  std::uint64_t empty_pages = 0;

  double OverallCtr() const {
    return impressions == 0
               ? 0.0
               : static_cast<double>(clicks) / static_cast<double>(impressions);
  }

  /// Clicks per request: unlike CTR-per-impression, this charges empty
  /// pages, so coverage counts.
  double ClicksPerRequest() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(clicks) / static_cast<double>(requests);
  }
};

/// Live A/B testing simulator (Section 6.2). Substitutes the production
/// traffic split with a planted-affinity click model:
///
///  - users are hashed into arms (each arm serves a disjoint user slice);
///  - every simulated day, each arm's users produce organic actions
///    (fed to that arm's model only) and issue recommendation requests;
///  - a recommended video at position k is clicked with probability
///    kPositionBias^k · TrueAffinity(u, v) · kClickScale;
///  - clicks feed back into the arm's model as Click/Play actions, so
///    real-time models benefit within the day while batch baselines wait
///    for their nightly RetrainBatch.
///
/// CTR per day per arm is the reported metric, exactly Figure 7's axes.
class AbTestHarness {
 public:
  /// Multiplicative position bias per rank position.
  static constexpr double kPositionBias = 0.85;
  /// Global click-probability scale.
  static constexpr double kClickScale = 0.8;

  struct Options {
    int num_days = 10;
    /// Warm-up days before day 0 of the measurement window (all arms see
    /// their users' organic traffic; no CTR recorded).
    int warmup_days = 2;
    /// Recommendation requests per user per day.
    int requests_per_user = 2;
    std::size_t top_n = 10;
    std::uint64_t seed = 99;
  };

  /// `world` is shared, not owned.
  AbTestHarness(const SyntheticWorld* world, Options options);

  /// Runs the experiment; `arms[i]` serves the users with
  /// hash(user) % arms.size() == i. Arm models are mutated (trained).
  std::vector<ArmResult> Run(
      const std::vector<Recommender*>& arms) const;

  const Options& options() const { return options_; }

 private:
  const SyntheticWorld* world_;
  Options options_;
};

/// Pairwise relative CTR improvements, Table 5:
/// entry (i, j) = (ctr_i − ctr_j) / ctr_j, from overall CTRs.
std::vector<std::vector<double>> CtrImprovementMatrix(
    const std::vector<ArmResult>& arms);

}  // namespace rtrec

#endif  // RTREC_EVAL_AB_TEST_H_
