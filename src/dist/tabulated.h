#pragma once

#include <string>
#include <vector>

#include "dist/distribution.h"

namespace wlgen::dist {

/// Distribution given by PDF values at knots — the GDS's "enter the PDF
/// values directly" input mode (section 4.1.1).  The density is the
/// piecewise-linear interpolation of the knots, normalised to unit mass;
/// cdf/quantile/moments are the exact closed forms of that polyline.
class TabulatedPdf : public Distribution {
 public:
  /// Throws std::invalid_argument unless xs is strictly increasing with
  /// >= 2 knots, all fs >= 0 and the total mass is positive.
  TabulatedPdf(std::vector<double> xs, std::vector<double> fs);

  double sample(util::RngStream& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  double lower_bound() const override { return xs_.front(); }
  double upper_bound() const override { return xs_.back(); }
  std::string describe() const override;
  DistributionPtr clone() const override;

  const std::vector<double>& knots() const { return xs_; }
  /// The density values as given, before normalisation.
  const std::vector<double>& input_values() const { return input_; }

 private:
  std::vector<double> xs_;
  std::vector<double> input_;
  std::vector<double> fs_;   ///< normalised density at the knots
  std::vector<double> cum_;  ///< CDF at the knots (cum_.back() == 1)
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// Distribution given by CDF values at knots — the GDS's "enter the CDF
/// values directly" input mode.  F values are rescaled to span [0, 1]; the
/// density is piecewise-constant between knots.
class TabulatedCdf : public Distribution {
 public:
  /// Throws std::invalid_argument unless xs is strictly increasing with
  /// >= 2 knots and Fs is non-decreasing with Fs.front() < Fs.back().
  TabulatedCdf(std::vector<double> xs, std::vector<double> Fs);

  double sample(util::RngStream& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  double lower_bound() const override { return xs_.front(); }
  double upper_bound() const override { return xs_.back(); }
  std::string describe() const override;
  DistributionPtr clone() const override;

  const std::vector<double>& knots() const { return xs_; }
  /// The CDF values as given, before rescaling.
  const std::vector<double>& input_values() const { return input_; }

 private:
  std::vector<double> xs_;
  std::vector<double> input_;
  std::vector<double> fs_;  ///< rescaled CDF at the knots
  double mean_ = 0.0;
  double variance_ = 0.0;
};

}  // namespace wlgen::dist
