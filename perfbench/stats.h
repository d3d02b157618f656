#ifndef RTREC_PERFBENCH_STATS_H_
#define RTREC_PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentile selection, failure counting,
// the capacity ladder and the layer budget. Header-only and free of rtrec
// dependencies so tests/stats_test.cc can check it in isolation.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples a timing needs beyond its reported tail percentile.
inline constexpr std::size_t kMinBeyondTail = 10;

/// Nearest-rank percentile `p` (0..100] of an ascending sample; NaN when
/// empty. Rank ceil(p/100 * n), so p50 of {1,2,3,4} is 2.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
/// least kMinBeyondTail samples above it in a sample of `n`, capped at
/// `cap`; 0 when even the median lacks support (n < 20).
inline double SupportedTailPercentile(std::size_t n, double cap = 99.0) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > cap) continue;
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(kMinBeyondTail)) return p;
  }
  return 0.0;
}

/// A timing as the benchmark reports it: the median and the highest
/// supported percentile (at most `cap`), over successes and failures.
struct Timing {
  std::size_t count = 0;    ///< Samples, failures included.
  std::size_t failed = 0;   ///< Of which failed (counted as +inf).
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when the sample is too small.
  double tail = 0.0;
};

/// Summarizes latencies of successful operations plus `failed` operations
/// that count as missing any latency limit: each failure enters the
/// sample as +infinity, so failures push the percentiles up. The tail is
/// the highest supported percentile up to `cap`.
inline Timing Summarize(std::vector<double> ok_samples, std::size_t failed,
                        double cap = 99.0) {
  Timing t;
  t.failed = failed;
  ok_samples.insert(ok_samples.end(), failed,
                    std::numeric_limits<double>::infinity());
  std::sort(ok_samples.begin(), ok_samples.end());
  t.count = ok_samples.size();
  if (ok_samples.empty()) return t;
  t.p50 = NearestRank(ok_samples, 50.0);
  t.tail_percentile = SupportedTailPercentile(ok_samples.size(), cap);
  t.tail = t.tail_percentile > 0 ? NearestRank(ok_samples, t.tail_percentile)
                                 : ok_samples.back();
  return t;
}

/// One rung of the open-loop rate ladder.
struct Rung {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< Successful replies per second.
  Timing latency;             ///< Measured from each request's due time.
};

/// A rung passes when its tail latency (failures included; the caller
/// picks the percentile through Summarize's cap) is within `limit_us`, it
/// achieved at least 0.99 of the offered rate, and nothing failed.
inline bool RungPasses(const Rung& rung, double limit_us) {
  return rung.latency.failed == 0 && rung.latency.tail_percentile > 0 &&
         rung.latency.tail <= limit_us &&
         rung.achieved_qps >= 0.99 * rung.offered_qps;
}

/// Index of the highest rung of an ascending ladder that passes with
/// every rung below it passing too (a rung above a failed one does not
/// count); -1 when the first rung fails.
inline int CapacityRung(const std::vector<Rung>& ladder, double limit_us) {
  int best = -1;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (!RungPasses(ladder[i], limit_us)) break;
    best = static_cast<int>(i);
  }
  return best;
}

/// A layer's self time: its call's mean duration minus the mean durations
/// of the child calls timed inside it.
inline double SelfTime(double total, const std::vector<double>& children) {
  double self = total;
  for (double child : children) self -= child;
  return self;
}

/// Share of an end-to-end time the layer self-times do not account for:
/// 1 - sum(self) / e2e. Negative when the layers overshoot the total.
inline double UnexplainedFrac(double e2e, const std::vector<double>& selves) {
  if (!(e2e > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double s : selves) sum += s;
  return 1.0 - sum / e2e;
}

/// Median of a small sample of run-level values (average of the middle
/// two for even sizes); NaN when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench

#endif  // RTREC_PERFBENCH_STATS_H_
