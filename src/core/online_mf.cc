#include "core/online_mf.h"

#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/vec_math.h"

namespace rtrec {

namespace {

/// Eq. 2 with μ = 0 on entries (see OnlineMf::PredictRows).
double Eq2Prediction(const FactorEntry& user, const FactorEntry& video) {
  return OnlineMf::PredictRows(user.bias, user.vec, video.bias, video.vec);
}

/// Fills the pre-step (progressive validation) fields of an MfSample from
/// entries the upcoming SGD step has not touched yet.
MfSample MakeSample(const UserAction& action, const FactorEntry& user,
                    const FactorEntry& video, double rating,
                    double confidence) {
  MfSample sample;
  sample.action = action;
  sample.rating = rating;
  sample.confidence = confidence;
  sample.user_bias = user.bias;
  sample.video_bias = video.bias;
  sample.user_norm = std::sqrt(NormSquared(user.vec));
  sample.video_norm = std::sqrt(NormSquared(video.vec));
  // Eq. 2 on the pre-step entries: an honest out-of-sample prediction.
  sample.prediction = Eq2Prediction(user, video);
  return sample;
}

}  // namespace

OnlineMf::OnlineMf(FactorStore* store, MfModelConfig config)
    : store_(store), config_(std::move(config)) {
  assert(store_ != nullptr);
  assert(config_.Validate().ok());
  assert(store_->num_factors() == config_.num_factors &&
         "FactorStore dimensionality must match the model config");
}

void ResolveUpdateStep(const MfModelConfig& config, double confidence,
                       double* rating, double* learning_rate) {
  switch (config.policy) {
    case UpdatePolicy::kBinary:
      *rating = BinaryRating(confidence);
      *learning_rate = config.eta0;
      return;
    case UpdatePolicy::kConfidenceAsRating:
      // The weight itself is the rating; zero-weight actions (impressions)
      // still do not train.
      *rating = confidence;
      *learning_rate = config.eta0;
      return;
    case UpdatePolicy::kCombine:
      *rating = BinaryRating(confidence);
      // Eq. 8: η_ui = η0 + α·w_ui — high-confidence actions move the
      // model more; low-confidence (likely noisy) ones barely do.
      *learning_rate = config.eta0 + config.alpha * confidence;
      return;
  }
}

double OnlineMf::ApplySgdStep(FactorEntry& user, FactorEntry& video,
                              double rating, double learning_rate,
                              double lambda) {
  assert(user.vec.size() == video.vec.size());
  // Eq. 4 with μ = 0: e_ui = r_ui − b_u − b_i − x_uᵀ y_i.
  const double error =
      rating - user.bias - video.bias - Dot(user.vec, video.vec);
  const double eta = learning_rate;

  // Eq. 5 (with the corrected interaction gradient; see header).
  user.bias += static_cast<float>(eta * (error - lambda * user.bias));
  video.bias += static_cast<float>(eta * (error - lambda * video.bias));
  for (std::size_t k = 0; k < user.vec.size(); ++k) {
    const double xu = user.vec[k];
    const double yi = video.vec[k];
    user.vec[k] = static_cast<float>(xu + eta * (error * yi - lambda * xu));
    video.vec[k] = static_cast<float>(yi + eta * (error * xu - lambda * yi));
  }
  return error;
}

OnlineMf::UpdateResult OnlineMf::ComputeStep(
    FactorStore& store, const MfModelConfig& config, MfValidationHook* hook,
    const UserAction& action, FactorEntry* user, FactorEntry* video) {
  assert(store.num_factors() == config.num_factors);
  UpdateResult result;
  result.confidence = ActionConfidence(action, config.feedback);

  double rating = 0.0;
  double eta = 0.0;
  ResolveUpdateStep(config, result.confidence, &rating, &eta);
  result.rating = rating;
  result.learning_rate = eta;
  if (rating <= 0.0) {
    // Impression records (r_ui = 0) do not influence the model
    // (Section 3.3) — but they are the negatives of progressive
    // validation, so a hooked model still scores them (read-only: ids
    // are not initialized by a mere impression).
    if (hook != nullptr) {
      StatusOr<FactorEntry> u = store.GetUser(action.user);
      StatusOr<FactorEntry> v = store.GetVideo(action.video);
      const FactorEntry user_entry =
          u.ok() ? std::move(u).value()
                 : store.MakeInitialEntry(action.user, /*is_user=*/true);
      const FactorEntry video_entry =
          v.ok() ? std::move(v).value()
                 : store.MakeInitialEntry(action.video, /*is_user=*/false);
      hook->OnMfSample(MakeSample(action, user_entry, video_entry,
                                  /*rating=*/0.0, result.confidence));
    }
    return result;
  }

  *user = store.GetOrInitUser(action.user);
  *video = store.GetOrInitVideo(action.video);
  if (hook != nullptr) {
    // Progressive validation (predict-then-train): sample before the
    // step below mutates the entries.
    hook->OnMfSample(
        MakeSample(action, *user, *video, rating, result.confidence));
  }
  result.error = ApplySgdStep(*user, *video, rating, eta, config.lambda);
  result.updated = true;
  return result;
}

OnlineMf::UpdateResult OnlineMf::Update(const UserAction& action) {
  // Read-compute-write, as the ComputeMF → MFStorage bolts do.
  FactorEntry user;
  FactorEntry video;
  const UpdateResult result =
      ComputeStep(*store_, config_, hook_, action, &user, &video);
  if (result.updated) {
    store_->PutUser(action.user, user.vec, user.bias);
    store_->PutVideo(action.video, video.vec, video.bias);
  }
  return result;
}

double OnlineMf::Predict(UserId u, VideoId i) const {
  StatusOr<FactorEntry> user = store_->GetUser(u);
  StatusOr<FactorEntry> video = store_->GetVideo(i);
  const FactorEntry user_entry =
      user.ok() ? std::move(user).value()
                : store_->MakeInitialEntry(u, /*is_user=*/true);
  const FactorEntry video_entry =
      video.ok() ? std::move(video).value()
                 : store_->MakeInitialEntry(i, /*is_user=*/false);
  return PredictWithEntries(user_entry, video_entry);
}

double OnlineMf::PredictRows(float user_bias,
                             std::span<const float> user_vec,
                             float video_bias,
                             std::span<const float> video_vec) {
  assert(user_vec.size() == video_vec.size());
  // r̂_ui = b_u + b_i + x_uᵀ y_i, summed in double.
  return double{user_bias} + video_bias +
         Dot(user_vec.data(), video_vec.data(), user_vec.size());
}

double OnlineMf::PredictWithEntries(const FactorEntry& user,
                                    const FactorEntry& video) const {
  return Eq2Prediction(user, video);
}

}  // namespace rtrec
