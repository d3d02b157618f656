// Personalized homepage (Fig. 6a): "Guess you like", with the production
// optimizations of Section 5.2 — demographic training (one engine per
// demographic group) and demographic filtering (group hot videos blended
// in; cold users fall back to popularity).
//
//   $ ./guess_you_like

#include <cstdio>

#include "demographic/demographic_filter.h"
#include "demographic/demographic_trainer.h"
#include "data/event_generator.h"
#include "eval/experiment_runner.h"

using namespace rtrec;

int main() {
  const SyntheticWorld world(SmallWorldConfig(123));
  DemographicGrouper grouper;
  world.RegisterProfiles(grouper);

  // Per-group rMF engines + a global fallback engine (Section 5.2.2).
  DemographicTrainer trainer(&grouper, world.TypeResolver(),
                             DefaultEngineOptions(UpdatePolicy::kCombine));

  // Demographic filtering on top (Section 5.2.1): blends each group's
  // hot videos into the MF results and covers cold users.
  HotVideoTracker tracker;
  DemographicFilter::Options filter_options;
  filter_options.blend_ratio = 0.2;
  DemographicFilter service(&trainer, &tracker, &grouper, filter_options);

  std::printf("training per-group models on 4 days of traffic...\n");
  for (const UserAction& action : world.GenerateDays(0, 4)) {
    service.Observe(action);
  }
  const Timestamp now = 4 * kMillisPerDay;
  std::printf("  active demographic groups: %zu\n\n",
              trainer.ActiveGroups().size());

  // Homepage for an active registered user.
  const SimUser* active_user = nullptr;
  for (const SimUser& u : world.population().users()) {
    if (u.profile.registered && u.activity > 3.0) {
      active_user = &u;
      break;
    }
  }
  if (active_user != nullptr) {
    RecRequest request;
    request.user = active_user->id;
    request.top_n = 8;
    request.now = now;
    auto recs = service.Recommend(request);
    std::printf("guess-you-like for user %llu (%s):\n",
                static_cast<unsigned long long>(active_user->id),
                ProfileToString(active_user->profile).c_str());
    if (recs.ok()) {
      for (const ScoredVideo& r : *recs) {
        std::printf("  video %-5llu score %.4f\n",
                    static_cast<unsigned long long>(r.video), r.score);
      }
    }
  }

  // Homepage for a brand-new unregistered visitor: the MF path has
  // nothing, so demographic filtering serves global hot videos.
  RecRequest cold;
  cold.user = 10'000'000;  // Never seen.
  cold.top_n = 8;
  cold.now = now;
  auto cold_recs = service.Recommend(cold);
  std::printf("\nguess-you-like for a brand-new unregistered visitor "
              "(global hot fallback):\n");
  if (cold_recs.ok()) {
    for (const ScoredVideo& r : *cold_recs) {
      std::printf("  video %-5llu score %.4f\n",
                  static_cast<unsigned long long>(r.video), r.score);
    }
  }
  return 0;
}
