#ifndef RTREC_CORE_ONLINE_MF_H_
#define RTREC_CORE_ONLINE_MF_H_

#include "common/status.h"
#include "core/action.h"
#include "core/model_config.h"
#include "kvstore/factor_store.h"

namespace rtrec {

/// Resolves (rating, learning rate) for an action of confidence `w`
/// under `config`'s policy — the pure part of Algorithm 1's step.
/// Rating 0 means "do not update".
void ResolveUpdateStep(const MfModelConfig& config, double confidence,
                       double* rating, double* learning_rate);

/// One progressively-validated training sample: everything the model
/// knew about an action *before* the SGD step consumed it. Since the
/// action has not influenced the model yet, `prediction` is an honest
/// out-of-sample score (progressive validation), and the norms/biases
/// describe the pre-step parameter state.
struct MfSample {
  UserAction action;
  /// r̂_ui (Eq. 2) before the step.
  double prediction = 0.0;
  /// r_ui the step will train toward; 0 for impressions (no step taken).
  double rating = 0.0;
  /// Confidence weight w_ui (Table 1 / Eq. 6).
  double confidence = 0.0;
  /// L2 norms of x_u and y_i before the step.
  double user_norm = 0.0;
  double video_norm = 0.0;
  double user_bias = 0.0;
  double video_bias = 0.0;
  double global_mean = 0.0;
};

/// Observer of the online training stream. Implementations must be
/// thread-safe (Update may run on many bolt threads) and cheap — the
/// callback sits on the training hot path.
class MfValidationHook {
 public:
  virtual ~MfValidationHook() = default;
  virtual void OnMfSample(const MfSample& sample) = 0;
};

/// The online adjustable matrix-factorization model of Section 3 —
/// Algorithm 1. Each user action is processed exactly once, in a single
/// SGD step, with a learning rate scaled by the action's confidence level
/// (Eq. 8) under the CombineModel policy.
///
/// The model state (x_u, y_i, b_u, b_i, μ) lives in a FactorStore shared
/// with the serving path, so every update is visible to recommendation
/// requests immediately. Update follows the production read-compute-write
/// protocol of the ComputeMF → MFStorage bolts: entries are read, the step
/// is computed, and new entries are written back whole. Under concurrency
/// a racing write may overwrite a step (last-writer-wins), matching the
/// deployed system's semantics; the topology avoids even that by fields
/// grouping.
class OnlineMf {
 public:
  /// Outcome of one Update call, exposed for tests and diagnostics.
  struct UpdateResult {
    /// False when the action carried no positive preference (e.g. an
    /// impression) and the model was left untouched.
    bool updated = false;
    /// Confidence weight w_ui of the action (Table 1 / Eq. 6).
    double confidence = 0.0;
    /// Rating r_ui used in the step (binary, or w_ui for ConfModel).
    double rating = 0.0;
    /// Prediction error e_ui before the step (Eq. 4).
    double error = 0.0;
    /// Learning rate η_ui applied (Eq. 8).
    double learning_rate = 0.0;
  };

  /// `store` must outlive the model and is shared, not owned.
  /// `config` must be valid (see MfModelConfig::Validate).
  OnlineMf(FactorStore* store, MfModelConfig config);

  OnlineMf(const OnlineMf&) = delete;
  OnlineMf& operator=(const OnlineMf&) = delete;

  /// Algorithm 1: folds one user action into the model.
  UpdateResult Update(const UserAction& action);

  /// Predicted preference r̂_ui = μ + b_u + b_i + x_uᵀy_i (Eq. 2).
  /// Unknown users/videos are scored with their deterministic initial
  /// entries, so cold ids produce near-μ scores rather than errors.
  double Predict(UserId u, VideoId i) const;

  /// Eq. 2 on explicit entries; used by the serving path, which batches
  /// entry fetches (Fig. 1's VectorsGet step).
  double PredictWithEntries(const FactorEntry& user,
                            const FactorEntry& video) const;

  /// The read-compute half of Algorithm 1's step, shared by Update and
  /// the ComputeMF bolt: resolves (r_ui, η_ui) for the action, reads both
  /// entries from `store` (initializing new ids, lines 3–8), hands `hook`
  /// (may be null) its pre-step sample, applies the SGD step to `*user`
  /// and `*video`, and folds r_ui into μ. Writing the entries back is the
  /// caller's: Update puts them itself, the topology ships them to
  /// MFStorage. An action without positive preference leaves the model
  /// and `*user`/`*video` untouched and returns `updated == false`.
  static UpdateResult ComputeStep(FactorStore& store,
                                  const MfModelConfig& config,
                                  MfValidationHook* hook,
                                  const UserAction& action, FactorEntry* user,
                                  FactorEntry* video);

  /// One in-place SGD step (the update block of Algorithm 1) on caller-
  /// provided entries: computes e_ui against `global_mean` and applies
  /// Eq. 5 with the regularized gradient. Returns e_ui.
  ///
  /// Note: the paper's Eq. 5 prints the interaction gradients as
  /// x_u ← x_u + η(e·x_u − λx_u); the correct SGD gradient of Eq. 3 (and
  /// what we implement) is x_u ← x_u + η(e·y_i − λx_u) and symmetrically
  /// for y_i — the printed form is a known typo (it would make the step
  /// independent of the other side's vector).
  static double ApplySgdStep(FactorEntry& user, FactorEntry& video,
                             double rating, double learning_rate,
                             double lambda, double global_mean);

  const MfModelConfig& config() const { return config_; }
  FactorStore& store() { return *store_; }
  const FactorStore& store() const { return *store_; }

  /// Installs a progressive-validation observer (nullptr to remove).
  /// The hook sees every action — impressions included, with rating 0 —
  /// scored by the model state *before* that action's step. Must be set
  /// before concurrent Update calls begin; not synchronized against them.
  void set_validation_hook(MfValidationHook* hook) { hook_ = hook; }
  MfValidationHook* validation_hook() const { return hook_; }

 private:
  FactorStore* store_;
  MfModelConfig config_;
  MfValidationHook* hook_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_CORE_ONLINE_MF_H_
