#ifndef RTREC_CORE_SIMILARITY_H_
#define RTREC_CORE_SIMILARITY_H_

#include <functional>
#include <span>

#include "common/types.h"
#include "kvstore/factor_store.h"

namespace rtrec {

/// Resolves a video's fine-grained type/category; backed by the catalog in
/// production and by fixtures in tests. Must be thread-safe.
using VideoTypeResolver = std::function<VideoType(VideoId)>;

/// CF similarity s1_ij = y_iᵀ y_j (Eq. 9) on the MF latent vectors.
double CfSimilarity(std::span<const float> yi, std::span<const float> yj);

/// Type similarity s2_ij (Eq. 10): 1 iff the fine-grained types match.
double TypeSimilarity(VideoType a, VideoType b);

/// Time-decay damping factor d = 2^(-Δt/ξ) (Eq. 11). Δt <= 0 gives 1.
double TimeDecay(Timestamp delta_millis, double xi_millis);

/// Relevance fusion (Eq. 12) *before* decay:
/// (1-β)·s1 + β·s2. The decay factor d_ij is applied at read time by
/// SimTableStore from the pair's stored update time.
double FuseSimilarity(double cf_sim, double type_sim, double beta);

}  // namespace rtrec

#endif  // RTREC_CORE_SIMILARITY_H_
