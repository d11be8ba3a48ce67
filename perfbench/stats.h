// Small order statistics shared by the end-to-end and traced runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Samples strictly above the nearest-rank q-percentile: the tail a
/// percentile stands on (the benchmark requires at least ten beyond p90).
inline std::size_t beyond(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}

/// One reported metric: name, value and unit, as printed in the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
