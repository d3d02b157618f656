#ifndef RTREC_SERVICE_RECOMMENDATION_SERVICE_H_
#define RTREC_SERVICE_RECOMMENDATION_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/engine.h"
#include "demographic/demographic_filter.h"
#include "demographic/demographic_trainer.h"
#include "demographic/grouper.h"
#include "demographic/hot_videos.h"
#include "quality/quality_monitor.h"

namespace rtrec {

/// The full production serving stack behind one object — what the paper
/// actually deploys: demographic training (per-group rMF engines with a
/// global fallback, Section 5.2.2) underneath demographic filtering
/// (group hot-video blending and cold-start fallback, Section 5.2.1),
/// with request metrics on top.
///
///   RecommendationService service(catalog.TypeResolver(), {});
///   service.RegisterProfile(user, profile);   // at sign-up
///   service.Observe(action);                  // the real-time stream
///   auto recs = service.Recommend(request);   // both Fig. 6 scenarios
///
/// Thread-safe: Observe and Recommend may run concurrently from any
/// number of threads.
class RecommendationService : public Recommender {
 public:
  struct Options {
    /// Per-group engine configuration (also the global fallback's).
    RecEngine::Options engine;
    /// Demographic filtering (blend ratio, cold-start floor).
    DemographicFilter::Options filter;
    /// Per-group hot-video tracking.
    HotVideoTracker::Options hot;
    /// Optional registry for service counters; null disables.
    MetricsRegistry* metrics = nullptr;
    /// Model-quality monitoring (progressive validation, online recall,
    /// live CTR join, drift watchdog). Active only when `metrics` is set;
    /// the demographic/arm identity functions are filled in by the
    /// service unless provided.
    QualityMonitor::Options quality;
  };

  /// Constructs with default options.
  explicit RecommendationService(VideoTypeResolver type_resolver);
  RecommendationService(VideoTypeResolver type_resolver, Options options);

  /// Registers (or updates) a user's demographic profile.
  void RegisterProfile(UserId user, const UserProfile& profile);

  /// The real-time update path.
  void Observe(const UserAction& action) override;

  /// The serving path; never errors into an empty page for cold users
  /// (hot-video fallback).
  StatusOr<std::vector<ScoredVideo>> Recommend(
      const RecRequest& request) override;

  /// Model-free serving path for degraded mode: answers purely from the
  /// demographic hot-video tracker (the user's group, falling back to
  /// the global list). Never errors and touches no engine state, so it
  /// stays available while the primary engine is failing or over its
  /// latency budget; RecServer flags such answers DEGRADED on the wire.
  std::vector<ScoredVideo> FallbackRecommend(const RecRequest& request) const;

  std::string name() const override { return "rtrec-service"; }

  /// Snapshots the model state (every group engine and the global
  /// engine) into `directory` (demographic/group_checkpoint.h's layout);
  /// Restore rebuilds it after a restart. Demographic profiles and hot
  /// lists are rebuilt from live traffic and sign-up data, mirroring
  /// production practice.
  Status Checkpoint(const std::string& directory) const;
  Status Restore(const std::string& directory);

  DemographicGrouper& grouper() { return grouper_; }
  DemographicTrainer* trainer() { return trainer_.get(); }  // Never null.
  /// Null when the service was built without a metrics registry.
  QualityMonitor* quality() { return quality_.get(); }

 private:
  Options options_;
  DemographicGrouper grouper_;
  HotVideoTracker hot_;
  std::unique_ptr<QualityMonitor> quality_;  // When options_.metrics set.
  std::unique_ptr<DemographicTrainer> trainer_;
  std::unique_ptr<DemographicFilter> filter_;
  Counter* requests_ = nullptr;
  Counter* actions_ = nullptr;
  // Trace spans recorded only when the calling thread carries a sampled
  // trace (a traced topology tuple reaching Observe through a bolt, or a
  // traced RecServer request reaching Recommend).
  Histogram* recommend_span_ = nullptr;
  Histogram* observe_span_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_SERVICE_RECOMMENDATION_SERVICE_H_
