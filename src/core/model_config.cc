#include "core/model_config.h"

namespace rtrec {

const char* UpdatePolicyToString(UpdatePolicy policy) {
  switch (policy) {
    case UpdatePolicy::kBinary:
      return "BinaryModel";
    case UpdatePolicy::kConfidenceAsRating:
      return "ConfModel";
    case UpdatePolicy::kCombine:
      return "CombineModel";
  }
  return "Unknown";
}

Status MfModelConfig::Validate() const {
  if (num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (eta0 <= 0.0 || eta0 > 1.0) {
    return Status::InvalidArgument("eta0 must lie in (0, 1]");
  }
  if (alpha < 0.0) return Status::InvalidArgument("alpha must be >= 0");
  if (init_scale <= 0.0) {
    return Status::InvalidArgument("init_scale must be positive");
  }
  return feedback.Validate();
}

Status SimilarityConfig::Validate() const {
  if (beta < 0.0 || beta > 1.0) {
    return Status::InvalidArgument("beta must lie in [0, 1]");
  }
  if (xi_millis <= 0.0) {
    return Status::InvalidArgument("xi_millis must be positive");
  }
  if (top_k == 0) return Status::InvalidArgument("top_k must be positive");
  if (max_pairs_per_action == 0) {
    return Status::InvalidArgument("max_pairs_per_action must be positive");
  }
  return Status::OK();
}

Status RecommendConfig::Validate() const {
  if (top_n == 0) return Status::InvalidArgument("top_n must be positive");
  if (candidates_per_seed == 0) {
    return Status::InvalidArgument("candidates_per_seed must be positive");
  }
  if (max_candidates < top_n) {
    return Status::InvalidArgument("max_candidates must be >= top_n");
  }
  return Status::OK();
}

}  // namespace rtrec
