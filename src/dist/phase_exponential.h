#pragma once

#include <string>
#include <vector>

#include "dist/distribution.h"

namespace wlgen::dist {

/// One phase of the paper's phase-type exponential (eq. 5.1):
/// weight w, mean theta, horizontal shift s.
struct ExpPhase {
  double weight = 1.0;
  double theta = 1.0;
  double offset = 0.0;
};

/// Phase-type exponential mixture — the first of the two parametric families
/// the paper's GDS fits to measured data (section 4.1.1, Figure 5.1):
///
///   f(x) = sum_i w_i * (1/theta_i) * exp(-(x - s_i)/theta_i)   for x >= s_i
///
/// Weights are normalised at construction.  Sampling draws ONE uniform: the
/// integer part of its position in the cached cumulative-weight table picks
/// the phase via a branchless scan, and the within-phase remainder is
/// rescaled and pushed through the shifted-exponential inverse transform —
/// no per-call partial-sum scan, no extra RNG draws.
class PhaseTypeExponential : public Distribution {
 public:
  /// Throws std::invalid_argument when phases is empty, any theta <= 0 or
  /// any weight <= 0.
  explicit PhaseTypeExponential(std::vector<ExpPhase> phases);

  /// Normalised phases (weights sum to 1).
  const std::vector<ExpPhase>& phases() const { return phases_; }

  /// Figure 5.1 panel (a): f(x) = exp(22.1, x) — a single phase.
  static PhaseTypeExponential paper_example_a();

  /// Figure 5.1 panel (b): two phases, the second shifted to x = 18.
  static PhaseTypeExponential paper_example_b();

  /// Figure 5.1 panel (c):
  /// f(x) = 0.4 exp(12.7, x) + 0.3 exp(18.2, x-18) + 0.3 exp(15, x-40).
  static PhaseTypeExponential paper_example_c();

  double sample(util::RngStream& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  double lower_bound() const override { return lower_; }
  double upper_bound() const override;
  std::string describe() const override;
  DistributionPtr clone() const override;

 private:
  std::vector<ExpPhase> phases_;
  std::vector<double> cum_weights_;  ///< cached cumulative weights (last == 1)
  std::vector<double> inv_theta_;    ///< cached 1/theta_i for pdf/cdf
  double mean_ = 0.0;
  double variance_ = 0.0;
  double lower_ = 0.0;
};

}  // namespace wlgen::dist
