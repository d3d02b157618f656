#include "service/recommendation_service.h"

#include "common/fault_injection.h"

namespace rtrec {

RecommendationService::RecommendationService(VideoTypeResolver type_resolver)
    : RecommendationService(std::move(type_resolver), Options{}) {}

RecommendationService::RecommendationService(VideoTypeResolver type_resolver,
                                             Options options)
    : options_(std::move(options)), hot_(options_.hot) {
  // The engines register their own metrics (kvstore.multiget.*) against
  // the service's registry.
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
  trainer_ = std::make_unique<DemographicTrainer>(
      &grouper_, std::move(type_resolver), options_.engine);
  filter_ = std::make_unique<DemographicFilter>(trainer_.get(), &hot_,
                                                &grouper_, options_.filter);
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
  return trainer_->SaveSnapshot(directory);
}

Status RecommendationService::Restore(const std::string& directory) {
  return trainer_->LoadSnapshot(directory);
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
      probe.top_n = QualityMonitor::kRecallTopN;
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
  // The same page the filter blends in: a degraded answer must not be
  // "the page you are on" either.
  std::vector<ScoredVideo> hot = hot_.HotPage(
      grouper_.GroupOf(request.user), n, request.now, request.seed_videos);
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
