#include "core/similarity.h"

#include <cassert>
#include <cmath>

#include "common/vec_math.h"

namespace rtrec {

double CfSimilarity(std::span<const float> yi, std::span<const float> yj) {
  assert(yi.size() == yj.size());
  return Dot(yi.data(), yj.data(), yi.size());
}

double TypeSimilarity(VideoType a, VideoType b) { return a == b ? 1.0 : 0.0; }

double TimeDecay(Timestamp delta_millis, double xi_millis) {
  if (delta_millis <= 0) return 1.0;
  return std::exp2(-static_cast<double>(delta_millis) / xi_millis);
}

double FuseSimilarity(double cf_sim, double type_sim, double beta) {
  return (1.0 - beta) * cf_sim + beta * type_sim;
}

}  // namespace rtrec
