// Summary statistics the benchmark reports: quantiles of raw samples and
// ratios that name their base. Latency percentiles come straight from the
// library's LatencyHistogram::percentile.
#pragma once

#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `samples` by linear interpolation between the
/// closest ranks (the "type 7" rule of numpy and R): q = 0.5 of {1, 2, 3, 4}
/// is 2.5. Throws std::invalid_argument on an empty sample.
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// num / base; throws std::invalid_argument when base is 0, so a ratio is
/// never silently reported against an empty base.
double ratio(double num, double base);

}  // namespace perfbench
