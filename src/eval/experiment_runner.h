#ifndef RTREC_EVAL_EXPERIMENT_RUNNER_H_
#define RTREC_EVAL_EXPERIMENT_RUNNER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "data/event_generator.h"
#include "demographic/grouper.h"
#include "eval/evaluator.h"

namespace rtrec {

/// Standard synthetic-world presets so benches, tests and examples agree
/// on the workload. `SmallWorldConfig` runs in well under a second;
/// `BenchWorldConfig` is the figure-reproduction scale.
WorldConfig SmallWorldConfig(std::uint64_t seed = 2016);
WorldConfig BenchWorldConfig(std::uint64_t seed = 2016);

/// A large, sparsely-interacted world for the dataset-statistics tables
/// (3 and 4): many videos, light per-user activity, so the user-video
/// matrix lands in the paper's sub-percent sparsity regime and the
/// >=N-action cleaning actually filters.
WorldConfig SparseWorldConfig(std::uint64_t seed = 2016);

/// The million-scale stress world (ROADMAP item 4): 1M users, 100k
/// videos, production-shaped load — evening-peaked diurnal sessions, a
/// day-1 flash crowd, 20% staggered cold-start catalog churn, and a
/// day-2 demographic drift sized to trip the quality watchdog. Per-user
/// activity is low (daily actives ≪ registrations), so one generated
/// day is a few hundred thousand actions. Use GenerateDayChunked to
/// stream it.
WorldConfig MillionScaleWorldConfig(std::uint64_t seed = 2016);

/// Engine options mirroring Table 2, with the given update policy.
RecEngine::Options DefaultEngineOptions(UpdatePolicy policy);

/// One simulated day of RunScenarioStream, as the quality watchdog saw
/// it. The max_* fields are within-day peaks of the EWMAs (sampled every
/// 512 actions): an online model re-adapts within the drift day, so the
/// transient is what the watchdog sees, not the end-of-day steady state.
struct ScenarioDay {
  std::int64_t actions = 0;
  std::int64_t impressions = 0;
  std::int64_t engagements = 0;
  double logloss = 0.0;
  double calibration = 0.0;
  double prediction_drift = 0.0;
  double max_logloss = 0.0;
  double max_abs_calibration = 0.0;
  double max_abs_prediction_drift = 0.0;
  double max_abs_label_shift = 0.0;
  std::int64_t alerts = 0;              ///< All watchdog alerts this day.
  std::int64_t label_shift_alerts = 0;  ///< The drift-detection channel.
};

struct ScenarioStreamResult {
  std::int64_t actions = 0;
  double world_build_s = 0.0;
  double elapsed_s = 0.0;  ///< The stream alone, world build excluded.
  /// Process RSS (VmRSS) around the stream and its peak (VmHWM); 0 off
  /// Linux.
  double rss_start_mb = 0.0;
  double rss_end_mb = 0.0;
  double rss_peak_mb = 0.0;
  std::size_t factor_entries = 0;
  std::size_t bytes_per_factor_entry = 0;
  double approx_factor_mb = 0.0;
  double sim_arena_mb = 0.0;
  /// The first flash-crowd video's share of its day's impressions.
  double flash_crowd_impression_share = 0.0;
  /// Watchdog alerts before the drift day and at the end: all channels,
  /// and the label-shift channel alone.
  std::int64_t alerts_before_drift = 0;
  std::int64_t alerts_after_drift = 0;
  std::int64_t label_shift_alerts_before_drift = 0;
  std::int64_t label_shift_alerts_after_drift = 0;
  std::vector<ScenarioDay> days;

  double actions_per_sec() const {
    return elapsed_s > 0 ? static_cast<double>(actions) / elapsed_s : 0.0;
  }
};

/// Streams `days` generated days of `config`'s world, chunked, through
/// one fp16-quantized CombineModel engine with a QualityMonitor attached
/// as its validation hook, and reports what the scenario (diurnal load,
/// flash crowd, drift) did to the watchdog and to memory.
ScenarioStreamResult RunScenarioStream(const WorldConfig& config, int days);

/// The `k` demographic groups with the most engaged actions in `data`
/// (how Table 4 picks "the three largest demographic groups").
std::vector<GroupId> LargestGroups(const Dataset& data,
                                   const DemographicGrouper& grouper,
                                   std::size_t k,
                                   const FeedbackConfig& feedback);

/// Trains a fresh engine per update policy on `train` and evaluates on
/// `test`; result order is {Binary, Conf, Combine}. The engines share the
/// given type resolver (the catalog's).
std::vector<OfflineResult> ComparePolicies(
    const VideoTypeResolver& type_resolver, const Dataset& train,
    const Dataset& test, const OfflineEvaluator::Options& eval_options);

/// Fixed-width text table for bench output, mirroring the paper's tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders with aligned columns and a separator under the header.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "%.4f"-formatted helper for table cells.
std::string Cell(double value, int precision = 4);

}  // namespace rtrec

#endif  // RTREC_EVAL_EXPERIMENT_RUNNER_H_
