#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double ratio(double num, double base) {
  if (base == 0) throw std::invalid_argument("ratio against a zero base");
  return num / base;
}

}  // namespace perfbench
