// Order statistics for malisim-perf. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so the
// numbers the benchmark prints are the ones a reader recomputes from the raw
// values in its JSON output.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace malisim::perf {

/// {q1, median, q3} of `values`. One value gives that value three times;
/// no values gives zeros.
inline std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {values[0], values[0], values[0]};
  constexpr long n = 4;
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;

  /// Interquartile distance as a share of the median: the run-to-run
  /// spread a regression bound has to exceed to mean anything.
  double Spread() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
  }
  /// True when the spread is narrow enough for `bound` (a share of the
  /// median) to separate a real change from noise.
  bool Resolves(double bound) const { return Spread() <= bound; }
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  const std::array<double, 3> q = Quartiles(values);
  s.q1 = q[0];
  s.median = q[1];
  s.q3 = q[2];
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  s.min = *lo;
  s.max = *hi;
  return s;
}

}  // namespace malisim::perf
