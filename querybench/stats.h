// Order statistics shared by the benchmark program and its self-test.
#ifndef TOPKDUP_QUERYBENCH_STATS_H_
#define TOPKDUP_QUERYBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace topkdup::querybench {

/// Median with the midpoint rule for an even count (Python's
/// statistics.median). 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in (0, 1]). 0 for an empty sample.
inline double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// A tail latency together with the evidence behind it.
struct Tail {
  double value = 0.0;
  /// Nearest-rank percentile of `value`, in (0, 100].
  double percentile = 0.0;
  size_t samples = 0;
};

/// The highest nearest-rank percentile that still has at least `beyond`
/// samples strictly above it. With fewer than beyond + 1 samples no such
/// percentile exists and the maximum (p100) is returned instead, so the
/// caller must report `samples` next to the value.
inline Tail TailPercentile(std::vector<double> values, size_t beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t index = n > beyond ? n - 1 - beyond : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

}  // namespace topkdup::querybench

#endif  // TOPKDUP_QUERYBENCH_STATS_H_
