#include "service/recommendation_service.h"

#include <filesystem>
#include <unordered_set>

#include "common/fault_injection.h"
#include "kvstore/checkpoint.h"

namespace rtrec {

RecommendationService::RecommendationService(VideoTypeResolver type_resolver)
    : RecommendationService(std::move(type_resolver), Options{}) {}

RecommendationService::RecommendationService(VideoTypeResolver type_resolver,
                                             Options options)
    : options_(std::move(options)), hot_(options_.hot) {
  // The engines register their own metrics (kvstore.multiget.*,
  // service.factor_cache.*) against the service's registry.
  options_.engine.metrics = options_.metrics;
  if (options_.metrics != nullptr) {
    QualityMonitor::Options quality_options = options_.quality;
    if (!quality_options.group_of) {
      quality_options.group_of = [this](UserId user) {
        return grouper_.GroupOf(user);
      };
    }
    if (!quality_options.group_name) {
      quality_options.group_name = &DemographicGrouper::GroupName;
    }
    quality_ = std::make_unique<QualityMonitor>(options_.metrics,
                                                std::move(quality_options));
    // Progressive validation: the engines built below score every action
    // before training on it. DemographicTrainer keeps the hook on its
    // global engine only, so each action is sampled exactly once.
    options_.engine.validation_hook = quality_.get();
  }
  Recommender* primary = nullptr;
  if (options_.demographic_training) {
    DemographicTrainer::Options trainer_options;
    trainer_options.engine = options_.engine;
    trainer_ = std::make_unique<DemographicTrainer>(
        &grouper_, type_resolver, trainer_options);
    primary = trainer_.get();
  } else {
    global_engine_ =
        std::make_unique<RecEngine>(std::move(type_resolver),
                                    options_.engine);
    primary = global_engine_.get();
  }
  filter_ = std::make_unique<DemographicFilter>(primary, &hot_, &grouper_,
                                                options_.filter);
  if (options_.metrics != nullptr) {
    requests_ = options_.metrics->GetCounter("service.requests");
    actions_ = options_.metrics->GetCounter("service.actions");
    recommend_span_ =
        options_.metrics->GetHistogram("trace.stage.service.recommend.us");
    observe_span_ =
        options_.metrics->GetHistogram("trace.stage.service.observe.us");
  }
}

Status RecommendationService::Checkpoint(const std::string& directory) const {
  if (trainer_ != nullptr) return trainer_->SaveSnapshot(directory);
  // Global-only mode: the single engine goes into the same layout.
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Unavailable("cannot create '" + directory +
                               "': " + ec.message());
  }
  // Data file first, manifest last and atomically: a failed checkpoint
  // write must leave the previous snapshot (and its manifest) serving.
  RTREC_RETURN_IF_ERROR(SaveCheckpoint(directory + "/group_global.ckpt",
                                       &global_engine_->factors(),
                                       &global_engine_->sim_table(),
                                       &global_engine_->history()));
  return WriteFileAtomic(directory + "/manifest.txt",
                         std::to_string(kGlobalGroup) + "\n");
}

Status RecommendationService::Restore(const std::string& directory) {
  if (trainer_ != nullptr) return trainer_->LoadSnapshot(directory);
  return LoadCheckpoint(directory + "/group_global.ckpt",
                        &global_engine_->factors(),
                        &global_engine_->sim_table(),
                        &global_engine_->history());
}

void RecommendationService::RegisterProfile(UserId user,
                                            const UserProfile& profile) {
  grouper_.RegisterProfile(user, profile);
}

void RecommendationService::Observe(const UserAction& action) {
  TraceSpan span(observe_span_);
  if (actions_ != nullptr) actions_->Increment();
  if (quality_ != nullptr) {
    // CTR join first: this engagement may answer an impression we served.
    quality_->OnEngagement(action);
    if (quality_->ShouldHoldOut(action)) {
      // Online recall@N: score the user's current top-N before the model
      // trains on the held-out action. The probe goes straight to the
      // filter so it is not counted as a request or recorded as served
      // impressions.
      RecRequest probe;
      probe.user = action.user;
      probe.top_n = quality_->options().recall_top_n;
      probe.now = action.time;
      StatusOr<std::vector<ScoredVideo>> page = filter_->Recommend(probe);
      bool hit = false;
      if (page.ok()) {
        for (const ScoredVideo& v : *page) {
          if (v.video == action.video) {
            hit = true;
            break;
          }
        }
      }
      quality_->OnHoldoutResult(action, hit);
    }
  }
  // The filter fans out to the primary model and the hot trackers.
  filter_->Observe(action);
}

StatusOr<std::vector<ScoredVideo>> RecommendationService::Recommend(
    const RecRequest& request) {
  TraceSpan span(recommend_span_);
  if (requests_ != nullptr) requests_->Increment();
  RTREC_RETURN_IF_ERROR(RTREC_FAULT_POINT("service.recommend"));
  StatusOr<std::vector<ScoredVideo>> page = filter_->Recommend(request);
  if (page.ok() && quality_ != nullptr) {
    quality_->OnServed(request.user, *page, /*degraded=*/false, request.now);
  }
  return page;
}

std::vector<ScoredVideo> RecommendationService::FallbackRecommend(
    const RecRequest& request) const {
  const std::size_t n =
      request.top_n > 0 ? request.top_n : options_.filter.top_n;
  const GroupId group = grouper_.GroupOf(request.user);

  // Honour the same exclusions as the primary path: never hand back the
  // video the user is watching (request seeds), and under exclude_watched
  // drop their history too — a degraded answer must not be "the page you
  // are on".
  std::unordered_set<VideoId> excluded(request.seed_videos.begin(),
                                       request.seed_videos.end());
  if (options_.engine.recommend.exclude_watched) {
    const RecEngine* engine = nullptr;
    if (trainer_ != nullptr) {
      engine = trainer_->GetEngine(group);
      if (engine == nullptr) engine = trainer_->GetEngine(kGlobalGroup);
    } else {
      engine = global_engine_.get();
    }
    if (engine != nullptr) {
      for (const HistoryEntry& e : engine->history().Get(request.user)) {
        excluded.insert(e.video);
      }
    }
  }

  // Over-fetch so the list survives filtering at full length.
  const std::size_t fetch = n + excluded.size();
  std::vector<ScoredVideo> hot = hot_.Hottest(group, fetch, request.now);
  if (hot.empty() && group != kGlobalGroup) {
    hot = hot_.Hottest(kGlobalGroup, fetch, request.now);
  }
  if (!excluded.empty()) {
    std::erase_if(hot, [&excluded](const ScoredVideo& v) {
      return excluded.contains(v.video);
    });
  }
  if (hot.size() > n) hot.resize(n);
  if (quality_ != nullptr) {
    // Degraded answers are impressions too: a fallback page the user
    // never clicks is exactly the regression the CTR segmentation is
    // there to show. (If RecServer later discards a raced primary
    // answer, its impressions still count — an accepted small skew,
    // noted in the runbook.)
    quality_->OnServed(request.user, hot, /*degraded=*/true, request.now);
  }
  return hot;
}

}  // namespace rtrec
