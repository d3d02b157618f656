#ifndef RTREC_CORE_MODEL_CONFIG_H_
#define RTREC_CORE_MODEL_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "core/implicit_feedback.h"
#include "kvstore/quantization.h"

namespace rtrec {

/// How the incremental SGD step treats a user action — the three
/// alternatives compared in Section 6.1.2:
enum class UpdatePolicy {
  /// Binary rating r in {0,1}, fixed learning rate η0 (BinaryModel).
  kBinary,
  /// Confidence-as-rating r = w_ui, fixed learning rate η0 (ConfModel).
  kConfidenceAsRating,
  /// Binary rating + adjustable learning rate η = η0 + α·w_ui (Eq. 8) —
  /// the paper's CombineModel (rMF).
  kCombine,
};

const char* UpdatePolicyToString(UpdatePolicy policy);

/// Hyper-parameters of the online MF model (Table 2). The printed values
/// in the paper are truncated; these defaults were re-derived by the grid
/// search of bench_table2_gridsearch on the synthetic workload.
struct MfModelConfig {
  /// Latent dimensionality f (paper: 20–200).
  int num_factors = 32;
  /// L2 regularization λ of Eq. 3.
  double lambda = 0.01;
  /// Basic learning rate η0 of Eq. 8 (grid-searched; see
  /// bench_table2_gridsearch and eval/experiment_runner.cc).
  double eta0 = 0.0025;
  /// Confidence coefficient α of Eq. 8. With the Table 1 weights this
  /// spreads per-action rates over ~[η0+α, η0+3α]: noisy clicks move the
  /// model roughly a third as much as full watches or comments, with the
  /// mean effective rate near 0.01.
  double alpha = 0.0034;
  /// Update policy (BinaryModel / ConfModel / CombineModel).
  UpdatePolicy policy = UpdatePolicy::kCombine;
  /// Scale of random vector initialization.
  double init_scale = 0.05;
  /// Seed for deterministic initialization.
  std::uint64_t seed = 1;
  /// Storage precision of factor vectors in the FactorStore. Training
  /// and serving always see float32; this controls the at-rest format
  /// (quantize on write, dequantize on read). kFloat16 halves factor
  /// memory for <1% recall cost (QuantizedRecallTest holds it to that).
  /// A checkpoint restores only into a store of the precision it was
  /// written at.
  FactorPrecision precision = FactorPrecision::kFloat32;
  /// Action-to-confidence mapping (Table 1, Eq. 6).
  FeedbackConfig feedback;

  Status Validate() const;
};

/// Parameters of the similar-video tables (Section 4.2). β blends CF and
/// type similarity (Eq. 12); ξ is the decay half-life (Eq. 11).
struct SimilarityConfig {
  /// Weight of type similarity in the fusion, in [0, 1].
  double beta = 0.3;
  /// Time-decay half-life ξ in milliseconds.
  double xi_millis = 3.0 * kMillisPerDay;
  /// Per-video similar-list length K.
  std::size_t top_k = 50;
  /// How many recent history entries pair with a new action when updating
  /// the tables (bounds the GetItemPairs fan-out).
  std::size_t max_pairs_per_action = 16;
  /// Minimum confidence for an action to touch the similarity tables
  /// (impressions and weak signals do not imply co-interest).
  double min_confidence = 1.0;

  Status Validate() const;
};

/// Parameters of real-time top-N generation (Section 4.1).
struct RecommendConfig {
  /// Number of results to return (top-N).
  std::size_t top_n = 10;
  /// Seed videos taken from the user's history when the request carries
  /// none ("guess you like" scenario).
  std::size_t max_seed_videos = 8;
  /// Candidates expanded per seed from its similar-video list.
  std::size_t candidates_per_seed = 20;
  /// Hard cap on the ranked candidate set (keeps latency bounded).
  std::size_t max_candidates = 200;

  Status Validate() const;
};

}  // namespace rtrec

#endif  // RTREC_CORE_MODEL_CONFIG_H_
