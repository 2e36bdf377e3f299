#include "dist/distribution.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace wlgen::dist {

double Distribution::stddev() const { return std::sqrt(variance()); }

double Distribution::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("Distribution::quantile: p outside [0, 1]");
  }
  const double lo_bound = lower_bound();
  const double hi_bound = upper_bound();
  if (p == 0.0) return lo_bound;
  if (p == 1.0) return hi_bound;

  // Bracket [lo, hi] with cdf(lo) <= p <= cdf(hi).
  double lo = lo_bound;
  if (!std::isfinite(lo)) {
    lo = mean() - 1.0;
    double step = std::max(1.0, stddev());
    while (cdf(lo) > p && std::isfinite(lo)) {
      lo -= step;
      step *= 2.0;
    }
  }
  double hi;
  if (std::isfinite(hi_bound)) {
    hi = hi_bound;
  } else {
    double step = std::max(1.0, stddev());
    hi = std::max(lo + step, mean());
    while (cdf(hi) < p) {
      hi += step;
      step *= 2.0;
      if (!std::isfinite(hi)) return std::numeric_limits<double>::infinity();
    }
  }

  for (int i = 0; i < 200 && hi - lo > 1e-13 * (1.0 + std::fabs(lo) + std::fabs(hi)); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace wlgen::dist
