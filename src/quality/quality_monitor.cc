#include "quality/quality_monitor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"
#include "eval/ab_test.h"

namespace rtrec {

namespace {

constexpr double kProbFloor = 1e-6;

/// Logistic link: the MF rating prediction read as an engagement
/// probability, clamped away from 0/1 so logloss stays finite.
double Probability(double prediction) {
  const double p = 1.0 / (1.0 + std::exp(-prediction));
  return std::min(1.0 - kProbFloor, std::max(kProbFloor, p));
}

double LogLoss(bool engaged, double p) {
  return engaged ? -std::log(p) : -std::log(1.0 - p);
}

}  // namespace

void QualityMonitor::CtrSegment::Click() const {
  clicks->Increment();
  const double i = static_cast<double>(impressions->value());
  if (i > 0.0) ctr->Set(static_cast<double>(clicks->value()) / i);
}

void QualityMonitor::CtrSegment::Impress(std::int64_t n) const {
  impressions->Increment(n);
  const double i = static_cast<double>(impressions->value());
  if (i > 0.0) ctr->Set(static_cast<double>(clicks->value()) / i);
}

QualityMonitor::QualityMonitor(MetricsRegistry* metrics, Options options)
    : metrics_(metrics), options_(std::move(options)) {
  assert(metrics_ != nullptr);
  assert(options_.num_arms > 0);
  if (!options_.group_name) {
    options_.group_name = [](GroupId g) { return std::to_string(g); };
  }

  // Every quality metric is registered up front so scrapes always show
  // the full schema (an absent alert counter is indistinguishable from a
  // never-fired one otherwise).
  samples_ = metrics_->GetCounter("quality.progressive.samples");
  logloss_gauge_ = metrics_->GetDoubleGauge("quality.progressive.logloss");
  calibration_gauge_ = metrics_->GetDoubleGauge("quality.progressive.bias");
  for (int t = 0; t < kNumActionTypes; ++t) {
    logloss_type_gauges_[t] = metrics_->GetDoubleGauge(
        std::string("quality.progressive.logloss.") +
        ActionTypeToString(static_cast<ActionType>(t)));
  }
  embedding_norm_gauge_ =
      metrics_->GetDoubleGauge("quality.drift.embedding_norm");
  global_bias_gauge_ = metrics_->GetDoubleGauge("quality.drift.global_bias");
  label_shift_gauge_ = metrics_->GetDoubleGauge("quality.drift.label_shift");

  holdout_evaluated_ = metrics_->GetCounter("quality.holdout.evaluated");
  holdout_hits_ = metrics_->GetCounter("quality.holdout.hits");
  online_recall_ = metrics_->GetDoubleGauge(
      "quality.online_recall@" + std::to_string(kRecallTopN));

  auto segment = [this](const std::string& suffix) {
    CtrSegment s;
    s.impressions = metrics_->GetCounter("quality.ctr.impressions" + suffix);
    s.clicks = metrics_->GetCounter("quality.ctr.clicks" + suffix);
    s.ctr = metrics_->GetDoubleGauge(
        suffix.empty() ? "quality.ctr.overall" : "quality.ctr" + suffix);
    return s;
  };
  overall_ = segment("");
  primary_ = segment(".primary");
  degraded_ = segment(".degraded");
  arms_.reserve(options_.num_arms);
  for (std::size_t a = 0; a < options_.num_arms; ++a) {
    arms_.push_back(segment(".arm." + std::to_string(a)));
  }
  position_weighted_ctr_ =
      metrics_->GetDoubleGauge("quality.ctr.position_weighted");
  duplicate_clicks_ = metrics_->GetCounter("quality.ctr.duplicate_clicks");
  unmatched_engagements_ =
      metrics_->GetCounter("quality.ctr.unmatched_engagements");
  served_coverage_ = metrics_->GetDoubleGauge("quality.drift.served_coverage");
  sim_staleness_ms_ = metrics_->GetGauge("quality.drift.sim_staleness_ms");

  alert_logloss_ = metrics_->GetCounter("quality.alerts.logloss");
  alert_calibration_ = metrics_->GetCounter("quality.alerts.calibration");
  alert_embedding_norm_ =
      metrics_->GetCounter("quality.alerts.embedding_norm");
  alert_bias_drift_ = metrics_->GetCounter("quality.alerts.bias_drift");
  alert_label_shift_ = metrics_->GetCounter("quality.alerts.label_shift");
  alert_staleness_ = metrics_->GetCounter("quality.alerts.staleness");
  alert_coverage_ = metrics_->GetCounter("quality.alerts.coverage");

  ring_.resize(kRingSize);
  user_heads_.Reset(kRingSize);
  served_video_counts_.Reset(kRingSize);
}

void QualityMonitor::Alert(Counter* counter, const char* kind,
                           const std::string& detail) {
  counter->Increment();
  // Sampled structured quality events: one warning per kLogEveryN
  // firings per alert type, so a stuck-bad signal cannot flood stderr.
  const std::int64_t n = counter->value();
  if (n % static_cast<std::int64_t>(kLogEveryN) == 1) {
    RTREC_LOG(kWarn) << "quality-event alert=" << kind << " count=" << n
                     << " " << detail;
  }
}

void QualityMonitor::OnMfSample(const MfSample& sample) {
  const bool engaged = sample.rating > 0.0;
  const double p = Probability(sample.prediction);
  const double loss = LogLoss(engaged, p);
  const double y = engaged ? 1.0 : 0.0;
  const GroupId group =
      options_.group_of ? options_.group_of(sample.action.user) : kGlobalGroup;
  const double a = kEwmaAlpha;

  samples_->Increment();
  if (engaged) {
    // Engagements advance the model clock (impressions never train).
    last_train_time_.store(sample.action.time, std::memory_order_relaxed);
  }

  std::lock_guard<std::mutex> lock(progressive_mu_);
  logloss_.Update(loss, a);
  logloss_gauge_->Set(logloss_.value);
  calibration_.Update(y - p, a);
  calibration_gauge_->Set(calibration_.value);

  const int type = static_cast<int>(sample.action.type);
  if (type >= 0 && type < kNumActionTypes) {
    logloss_by_type_[type].Update(loss, a);
    logloss_type_gauges_[type]->Set(logloss_by_type_[type].value);
  }

  GroupState& gs = logloss_by_group_[group];
  if (gs.gauge == nullptr) {
    gs.gauge = metrics_->GetDoubleGauge("quality.progressive.logloss.group." +
                                        options_.group_name(group));
  }
  gs.logloss.Update(loss, a);
  gs.gauge->Set(gs.logloss.value);

  embedding_norm_.Update(0.5 * (sample.user_norm + sample.video_norm), a);
  embedding_norm_gauge_->Set(embedding_norm_.value);
  prediction_fast_.Update(sample.prediction, a);
  // A 10× slower EWMA is the reference operating point the fast one is
  // compared against by the watchdog.
  prediction_slow_.Update(sample.prediction, 0.1 * a);
  global_bias_gauge_->Set(prediction_fast_.value - prediction_slow_.value);
  // Label-shift pair: the raw engagement rate on two timescales orders
  // of magnitude slower than the loss EWMAs. The loss/calibration
  // signals re-center within a day because every SGD step pulls the
  // per-entity biases toward the new labels; the label mean itself has
  // no such feedback, so a population-level shift stays visible here for
  // the full fast-vs-slow horizon gap. The binary labels make this pair
  // noisy at loss-EWMA timescales (σ ≈ √(α/2)·σ_y), which is why it
  // runs 50× slower: a real shift is sustained, noise averages out.
  label_fast_.Update(y, kLabelFastAlpha);
  label_slow_.Update(y, kLabelSlowAlpha);
  label_shift_gauge_->Set(label_fast_.value - label_slow_.value);

  if (++progressive_count_ % kWatchdogEveryN == 0) {
    CheckTrainingWatchdog();
  }
}

void QualityMonitor::CheckTrainingWatchdog() {
  if (logloss_.seeded && logloss_.value > kLoglossAlert) {
    Alert(alert_logloss_, "logloss",
          "ewma=" + std::to_string(logloss_.value) +
              " threshold=" + std::to_string(kLoglossAlert));
  }
  if (calibration_.seeded && std::abs(calibration_.value) > kCalibrationAlert) {
    Alert(alert_calibration_, "calibration",
          "ewma=" + std::to_string(calibration_.value) +
              " threshold=" + std::to_string(kCalibrationAlert));
  }
  if (embedding_norm_.seeded && embedding_norm_.value > kEmbeddingNormAlert) {
    Alert(alert_embedding_norm_, "embedding_norm",
          "ewma=" + std::to_string(embedding_norm_.value) +
              " threshold=" + std::to_string(kEmbeddingNormAlert));
  }
  const double drift = prediction_fast_.value - prediction_slow_.value;
  if (prediction_slow_.seeded && std::abs(drift) > kBiasDriftAlert) {
    Alert(alert_bias_drift_, "bias_drift",
          "drift=" + std::to_string(drift) +
              " threshold=" + std::to_string(kBiasDriftAlert));
  }
  // The label-shift check waits for the slow EWMA to mature (five time
  // constants of samples, residual < 1% of the seed offset): both EWMAs
  // seed from the same first sample and converge toward the true rate at
  // different speeds, so the warm-up gap is an artifact of cold start,
  // not a shift.
  const double label_shift = label_fast_.value - label_slow_.value;
  if (label_slow_.seeded &&
      static_cast<double>(progressive_count_) * kLabelSlowAlpha >= 5.0 &&
      std::abs(label_shift) > kLabelShiftAlert) {
    Alert(alert_label_shift_, "label_shift",
          "shift=" + std::to_string(label_shift) +
              " threshold=" + std::to_string(kLabelShiftAlert));
  }
}

bool QualityMonitor::ShouldHoldOut(const UserAction& action) const {
  if (options_.holdout_every_n == 0) return false;
  if (action.type == ActionType::kImpress) return false;
  // Deterministic per-action selection: stable under concurrency, replay,
  // and across processes — no shared counter to race on.
  const std::uint64_t h =
      MixHash64(action.user ^ MixHash64(action.video) ^
                static_cast<std::uint64_t>(action.time));
  return h % options_.holdout_every_n == 0;
}

void QualityMonitor::OnHoldoutResult(const UserAction& action, bool hit) {
  (void)action;
  holdout_evaluated_->Increment();
  if (hit) holdout_hits_->Increment();
  std::lock_guard<std::mutex> lock(holdout_mu_);
  const double evaluated = static_cast<double>(holdout_evaluated_->value());
  if (evaluated > 0.0) {
    online_recall_->Set(static_cast<double>(holdout_hits_->value()) /
                        evaluated);
  }
}

void QualityMonitor::OnServed(UserId user,
                              const std::vector<ScoredVideo>& results,
                              bool degraded, Timestamp now) {
  if (results.empty()) return;
  const std::uint32_t arm =
      static_cast<std::uint32_t>(AbArmOf(user, options_.num_arms));

  std::lock_guard<std::mutex> lock(ring_mu_);
  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::uint32_t index = static_cast<std::uint32_t>(ring_next_);
    ring_next_ = (ring_next_ + 1) % ring_.size();
    Slot& slot = ring_[index];
    if (slot.occupied) Evict(index);
    slot.user = user;
    slot.video = results[k].video;
    slot.served_at = now;
    slot.position = static_cast<std::uint32_t>(k);
    slot.arm = arm;
    slot.degraded = degraded;
    slot.clicked = false;
    slot.occupied = true;
    ++ring_occupied_;
    // The new slot becomes the head of its user's chain.
    std::uint32_t& head = user_heads_.FindOrInsert(user);
    slot.older = head == 0 ? kNoSlot : head - 1;
    slot.newer = kNoSlot;
    if (head != 0) ring_[head - 1].newer = index;
    head = index + 1;
    ++served_video_counts_.FindOrInsert(slot.video);
  }

  const std::int64_t n = static_cast<std::int64_t>(results.size());
  overall_.Impress(n);
  (degraded ? degraded_ : primary_).Impress(n);
  arms_[arm].Impress(n);

  // Serving-side drift: catalog coverage of the live ring, and how far
  // serving time runs ahead of the newest trained action.
  const double coverage =
      static_cast<double>(served_video_counts_.size()) /
      static_cast<double>(ring_occupied_);
  served_coverage_->Set(coverage);
  if (ring_occupied_ * 2 >= kRingSize && coverage < kCoverageAlert) {
    Alert(alert_coverage_, "coverage",
          "coverage=" + std::to_string(coverage) +
              " threshold=" + std::to_string(kCoverageAlert));
  }
  const Timestamp last_train =
      last_train_time_.load(std::memory_order_relaxed);
  if (last_train > 0) {
    // A serve whose `now` precedes the newest trained action (a client
    // clock behind the event stream's) reads as fresh, not as negative
    // staleness.
    const std::int64_t staleness = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(now) -
               static_cast<std::int64_t>(last_train));
    sim_staleness_ms_->Set(staleness);
    if (staleness > kStalenessAlertMs) {
      Alert(alert_staleness_, "staleness",
            "staleness_ms=" + std::to_string(staleness) + " threshold_ms=" +
                std::to_string(kStalenessAlertMs));
    }
  }
}

void QualityMonitor::Evict(std::uint32_t index) {
  Slot& slot = ring_[index];
  assert(slot.occupied && slot.older == kNoSlot);
  if (slot.newer != kNoSlot) {
    ring_[slot.newer].older = kNoSlot;
  } else {
    user_heads_.Erase(slot.user);  // The user's last live slot.
  }
  std::uint32_t* count = served_video_counts_.Find(slot.video);
  assert(count != nullptr);
  if (--*count == 0) served_video_counts_.Erase(slot.video);
  slot.occupied = false;
  --ring_occupied_;
}

void QualityMonitor::OnEngagement(const UserAction& action) {
  if (action.type == ActionType::kImpress) return;

  std::lock_guard<std::mutex> lock(ring_mu_);
  Slot* match = nullptr;
  const std::uint32_t* head = user_heads_.Find(action.user);
  // Most-recent first: a re-served video joins its newest impression.
  for (std::uint32_t index = head == nullptr ? kNoSlot : *head - 1;
       index != kNoSlot; index = ring_[index].older) {
    Slot& slot = ring_[index];
    if (slot.video != action.video) continue;
    if (action.time < slot.served_at ||
        action.time - slot.served_at > kJoinWindowMs) {
      continue;
    }
    match = &slot;
    break;
  }
  if (match == nullptr) {
    // An engagement we never served (organic traffic, expired slot, or a
    // user with no impressions at all) must not contribute clicks — it
    // has no impression to be a rate of.
    unmatched_engagements_->Increment();
    return;
  }
  if (match->clicked) {
    // Second engagement on an already-joined slot: dedup so one served
    // impression can never count more than one click.
    duplicate_clicks_->Increment();
    return;
  }
  match->clicked = true;
  overall_.Click();
  (match->degraded ? degraded_ : primary_).Click();
  arms_[match->arm].Click();
  weighted_clicks_ +=
      std::pow(kPositionBias, -static_cast<double>(match->position));
  const double impressions =
      static_cast<double>(overall_.impressions->value());
  if (impressions > 0.0) {
    position_weighted_ctr_->Set(weighted_clicks_ / impressions);
  }
}

}  // namespace rtrec
