#include "eval/ab_test.h"

#include <cassert>
#include <cmath>

#include "common/random.h"

namespace rtrec {

AbTestHarness::AbTestHarness(const SyntheticWorld* world, Options options)
    : world_(world), options_(options) {
  assert(world_ != nullptr);
  assert(options_.num_days > 0);
  assert(options_.top_n > 0);
}

std::vector<ArmResult> AbTestHarness::Run(
    const std::vector<Recommender*>& arms) const {
  assert(!arms.empty());
  const std::size_t num_arms = arms.size();

  std::vector<ArmResult> results(num_arms);
  for (std::size_t a = 0; a < num_arms; ++a) {
    results[a].name = arms[a]->name();
  }

  auto arm_of = [num_arms](UserId user) -> std::size_t {
    return AbArmOf(user, num_arms);
  };

  const int total_days = options_.warmup_days + options_.num_days;
  for (int day = 0; day < total_days; ++day) {
    const bool measuring = day >= options_.warmup_days;
    const Timestamp day_end =
        world_->config().start_millis +
        static_cast<Timestamp>(day + 1) * kMillisPerDay;

    // 1. Organic traffic: each arm observes only its own users.
    for (const UserAction& action : world_->GenerateDay(day)) {
      arms[arm_of(action.user)]->Observe(action);
    }

    // 2. Recommendation traffic with the click simulator.
    std::vector<std::uint64_t> day_impressions(num_arms, 0);
    std::vector<std::uint64_t> day_clicks(num_arms, 0);
    for (const SimUser& user : world_->population().users()) {
      const std::size_t arm = arm_of(user.id);
      Rng rng(MixHash64(options_.seed) ^
              MixHash64(static_cast<std::uint64_t>(day) * 31 + user.id));
      for (int r = 0; r < options_.requests_per_user; ++r) {
        RecRequest request;
        request.user = user.id;
        request.top_n = options_.top_n;
        request.now = world_->config().start_millis +
                      static_cast<Timestamp>(day) * kMillisPerDay +
                      rng.NextInt64(0, kMillisPerDay - 1);
        StatusOr<std::vector<ScoredVideo>> recs =
            arms[arm]->Recommend(request);
        if (measuring) {
          ++results[arm].requests;
          if (!recs.ok() || recs->empty()) ++results[arm].empty_pages;
        }
        if (!recs.ok() || recs->empty()) continue;

        double bias = 1.0;
        for (std::size_t k = 0; k < recs->size(); ++k) {
          const VideoId video = (*recs)[k].video;
          if (measuring) ++day_impressions[arm];
          const double p_click = kClickScale * bias *
                                 world_->TrueAffinity(user.id, video);
          bias *= kPositionBias;
          if (!rng.NextBool(p_click)) continue;
          if (measuring) ++day_clicks[arm];
          // The click feeds back into the arm's model in real time.
          const Timestamp t = request.now + 1000 * (1 + static_cast<
              Timestamp>(k));
          arms[arm]->Observe(
              UserAction{user.id, video, ActionType::kClick, 0.0, t});
          arms[arm]->Observe(
              UserAction{user.id, video, ActionType::kPlay, 0.0, t + 100});
        }
      }
    }

    // 3. Nightly batch retrain (AR / SimHash cadence).
    for (Recommender* arm : arms) arm->RetrainBatch(day_end);

    if (measuring) {
      for (std::size_t a = 0; a < num_arms; ++a) {
        results[a].impressions += day_impressions[a];
        results[a].clicks += day_clicks[a];
        results[a].daily_ctr.push_back(
            day_impressions[a] == 0
                ? 0.0
                : static_cast<double>(day_clicks[a]) /
                      static_cast<double>(day_impressions[a]));
      }
    }
  }
  return results;
}

std::vector<std::vector<double>> CtrImprovementMatrix(
    const std::vector<ArmResult>& arms) {
  const std::size_t n = arms.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double ctr_i = arms[i].OverallCtr();
      const double ctr_j = arms[j].OverallCtr();
      matrix[i][j] = ctr_j <= 0.0 ? 0.0 : (ctr_i - ctr_j) / ctr_j;
    }
  }
  return matrix;
}

}  // namespace rtrec
