#ifndef RTREC_QUALITY_QUALITY_MONITOR_H_
#define RTREC_QUALITY_QUALITY_MONITOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_id_map.h"
#include "common/metrics.h"
#include "common/types.h"
#include "core/action.h"
#include "core/online_mf.h"
#include "core/recommender.h"

namespace rtrec {

/// Live model-quality monitoring (the online counterpart of the paper's
/// Section 6 evaluation). Four signal sources, all exported through the
/// MetricsRegistry and therefore visible on the Stats RPC and the
/// Prometheus endpoint:
///
///  1. Progressive validation — installed as the MF model's
///     MfValidationHook, it scores every training action *before* the SGD
///     step consumes it (predict-then-train, Alg. 1) and maintains
///     logloss / calibration-bias EWMAs, overall and segmented per action
///     type and per demographic group. Impressions are the negatives.
///  2. Online recall@N — a deterministic 1-in-N slice of engaged actions
///     is scored against the current model's top-N for that user before
///     being trained on (`quality.online_recall@N`).
///  3. Live CTR — every served page is recorded in a ring buffer of
///     impressions; subsequent Observe engagements join against it,
///     giving CTR and position-weighted CTR segmented by A/B arm
///     (AbArmOf identity, shared with the offline harness) and by
///     degraded-vs-primary responses. Duplicate engagements on a slot
///     and engagements with no recorded impression are counted apart and
///     never inflate CTR.
///  4. Drift watchdog — embedding-norm / prediction-drift /
///     engagement-rate (label-shift) EWMAs from the training stream plus
///     serving-side staleness and served-catalog coverage, checked
///     against the fixed k*Alert thresholds below on a fixed cadence;
///     violations bump `quality.alerts.*` and emit sampled structured
///     "quality-event" warnings.
///
/// Thread-safe; designed to sit on the Observe/Recommend hot paths (two
/// small critical sections, no allocation at steady state).
class QualityMonitor : public MfValidationHook {
 public:
  // Tuning: fixed values, listed with the alerts in docs/OPERATIONS.md.

  /// EWMA smoothing factor for the progressive-validation statistics.
  static constexpr double kEwmaAlpha = 0.02;
  /// N of online recall@N (`quality.online_recall@10`).
  static constexpr std::size_t kRecallTopN = 10;
  /// Served-impression slots retained for the CTR join.
  static constexpr std::size_t kRingSize = 4096;
  /// An engagement joins an impression only within this window (6 h).
  static constexpr std::int64_t kJoinWindowMs = 6 * 60 * 60 * 1000;
  /// Position-bias base: a click at position k counts 1/bias^k in the
  /// position-weighted CTR (matches AbTestHarness::Options).
  static constexpr double kPositionBias = 0.85;
  /// Watchdog cadence: thresholds are checked every N progressive
  /// samples (and staleness/coverage on every served page).
  static constexpr std::size_t kWatchdogEveryN = 256;
  /// At most one structured warning per alert type per N firings.
  static constexpr std::size_t kLogEveryN = 64;
  /// Alert when the logloss EWMA exceeds this (untrained baseline is
  /// ln 2 ≈ 0.693; a healthy model trends well below it).
  static constexpr double kLoglossAlert = 1.0;
  /// Alert when |calibration bias EWMA| (y − p) exceeds this.
  static constexpr double kCalibrationAlert = 0.5;
  /// Alert when the embedding-norm EWMA exceeds this (norm blow-up is
  /// the classic SGD divergence signature).
  static constexpr double kEmbeddingNormAlert = 10.0;
  /// Alert when the fast and slow prediction EWMAs diverge by more
  /// than this (sudden shift of the model's operating point).
  static constexpr double kBiasDriftAlert = 2.0;
  /// Alert when the fast and slow *engagement-rate* EWMAs diverge by
  /// more than this: label shift — P(engage | impression) moved. This
  /// is how a population-wide preference (demographic) drift shows up
  /// in the training stream even after per-entity SGD biases have
  /// re-calibrated the loss signals away. The pair runs 50× slower
  /// than the loss EWMAs (binary labels are noisy; a real shift is
  /// sustained) and is checked only once the slow EWMA has matured
  /// (5 / kLabelSlowAlpha samples, 125,000), so the cold-start
  /// warm-up, where the two EWMAs converge at different speeds from the
  /// same seed, cannot fire it.
  static constexpr double kLabelShiftAlert = 0.04;
  /// Smoothing factors of the label-shift pair.
  static constexpr double kLabelFastAlpha = 0.02 * kEwmaAlpha;
  static constexpr double kLabelSlowAlpha = 0.002 * kEwmaAlpha;
  /// Alert when serving time runs this far ahead of the newest trained
  /// action (stale model / stalled ingest), 24 h.
  static constexpr std::int64_t kStalenessAlertMs = 24 * 60 * 60 * 1000;
  /// Alert when distinct videos / occupied ring slots drops below this
  /// with the ring at least half full (the system keeps serving the
  /// same few videos).
  static constexpr double kCoverageAlert = 0.01;

  struct Options {
    /// Hold out one in N engaged actions for online recall (0 disables).
    /// Selection is a deterministic hash of (user, video, time), so it is
    /// stable under concurrency and across replays.
    std::size_t holdout_every_n = 100;
    /// A/B arms for CTR segmentation (users hashed via AbArmOf).
    std::size_t num_arms = 2;

    /// Demographic identity for per-group segmentation; when unset all
    /// samples land in the global segment. Must be thread-safe.
    std::function<GroupId(UserId)> group_of;
    /// Human-readable group label; std::to_string when unset.
    std::function<std::string(GroupId)> group_name;
  };

  /// `metrics` is required and must outlive the monitor.
  QualityMonitor(MetricsRegistry* metrics, Options options);

  QualityMonitor(const QualityMonitor&) = delete;
  QualityMonitor& operator=(const QualityMonitor&) = delete;

  /// MfValidationHook: one pre-step training sample (signal 1 + drift).
  void OnMfSample(const MfSample& sample) override;

  /// True when `action` is in the deterministic held-out slice. The
  /// caller scores the user's current top-N first and reports via
  /// OnHoldoutResult, then trains on the action as usual.
  bool ShouldHoldOut(const UserAction& action) const;
  void OnHoldoutResult(const UserAction& action, bool hit);

  /// Records one served page into the impression ring (signal 3).
  /// `degraded` marks hot-video fallback answers.
  void OnServed(UserId user, const std::vector<ScoredVideo>& results,
                bool degraded, Timestamp now);

  /// Joins one observed action against the impression ring. Impressions
  /// are ignored (they are not engagements); engaged actions either mark
  /// a served slot clicked or count as unmatched.
  void OnEngagement(const UserAction& action);


 private:
  /// Exponentially weighted moving average seeded by its first sample.
  struct Ewma {
    double value = 0.0;
    bool seeded = false;
    void Update(double x, double alpha) {
      value = seeded ? (1.0 - alpha) * value + alpha * x : x;
      seeded = true;
    }
  };

  /// CTR segment: raw impression/click counters plus the derived gauge.
  struct CtrSegment {
    Counter* impressions = nullptr;
    Counter* clicks = nullptr;
    DoubleGauge* ctr = nullptr;
    void Click() const;
    void Impress(std::int64_t n) const;
  };

  /// Ring index that ends a user's slot chain.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One served impression awaiting its engagement. A user's live slots
  /// form a chain through the ring, newest first: the chain's head is in
  /// user_heads_, `older` and `newer` link its members.
  struct Slot {
    UserId user = 0;
    VideoId video = 0;
    Timestamp served_at = 0;
    std::uint32_t position = 0;
    std::uint32_t arm = 0;
    std::uint32_t older = kNoSlot;
    std::uint32_t newer = kNoSlot;
    bool degraded = false;
    bool clicked = false;
    bool occupied = false;
  };

  /// Drops the occupied slot `index` from both indexes. The ring evicts
  /// in serve order, so it is the oldest slot of its user's chain.
  /// Requires ring_mu_.
  void Evict(std::uint32_t index);

  void CheckTrainingWatchdog();  // Requires progressive_mu_.
  void Alert(Counter* counter, const char* kind, const std::string& detail);

  MetricsRegistry* metrics_;
  Options options_;

  // --- Progressive validation + training-side drift (progressive_mu_).
  mutable std::mutex progressive_mu_;
  Ewma logloss_;
  Ewma calibration_;  // EWMA of y − p.
  std::array<Ewma, kNumActionTypes> logloss_by_type_;
  struct GroupState {
    Ewma logloss;
    DoubleGauge* gauge = nullptr;
  };
  std::unordered_map<GroupId, GroupState> logloss_by_group_;
  Ewma embedding_norm_;   // Mean of pre-step ‖x_u‖, ‖y_i‖.
  Ewma prediction_fast_;  // Operating-point drift pair.
  Ewma prediction_slow_;
  Ewma label_fast_;  // Engagement-rate (label-shift) drift pair.
  Ewma label_slow_;
  std::size_t progressive_count_ = 0;
  Counter* samples_ = nullptr;
  DoubleGauge* logloss_gauge_ = nullptr;
  DoubleGauge* calibration_gauge_ = nullptr;
  std::array<DoubleGauge*, kNumActionTypes> logloss_type_gauges_{};
  DoubleGauge* embedding_norm_gauge_ = nullptr;
  DoubleGauge* global_bias_gauge_ = nullptr;
  DoubleGauge* label_shift_gauge_ = nullptr;
  std::atomic<Timestamp> last_train_time_{0};

  // --- Holdout recall (holdout_mu_ only orders the gauge update).
  mutable std::mutex holdout_mu_;
  Counter* holdout_evaluated_ = nullptr;
  Counter* holdout_hits_ = nullptr;
  DoubleGauge* online_recall_ = nullptr;

  // --- CTR join (ring_mu_).
  mutable std::mutex ring_mu_;
  std::vector<Slot> ring_;
  std::size_t ring_next_ = 0;
  std::size_t ring_occupied_ = 0;
  /// user → 1 + ring index of their newest live slot. Sized once for
  /// kRingSize keys (every live slot could belong to a distinct user),
  /// so serving never allocates or frees under ring_mu_.
  FlatIdMap user_heads_;
  /// video → live-slot count; its size is the distinct served catalog.
  FlatIdMap served_video_counts_;
  double weighted_clicks_ = 0.0;  // Σ over clicks of position_bias^-k.
  CtrSegment overall_;
  CtrSegment primary_;
  CtrSegment degraded_;
  std::vector<CtrSegment> arms_;
  DoubleGauge* position_weighted_ctr_ = nullptr;
  Counter* duplicate_clicks_ = nullptr;
  Counter* unmatched_engagements_ = nullptr;
  DoubleGauge* served_coverage_ = nullptr;
  Gauge* sim_staleness_ms_ = nullptr;

  // --- Alerts (atomic counters; log sampling via counter values).
  Counter* alert_logloss_ = nullptr;
  Counter* alert_calibration_ = nullptr;
  Counter* alert_embedding_norm_ = nullptr;
  Counter* alert_bias_drift_ = nullptr;
  Counter* alert_label_shift_ = nullptr;
  Counter* alert_staleness_ = nullptr;
  Counter* alert_coverage_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_QUALITY_QUALITY_MONITOR_H_
