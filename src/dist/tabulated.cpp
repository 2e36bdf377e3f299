#include "dist/tabulated.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dist/format.h"
#include "util/rng.h"

namespace wlgen::dist {

namespace {

void validate_grid(const std::vector<double>& xs, const std::vector<double>& vs,
                   const char* who) {
  if (xs.size() != vs.size()) {
    throw std::invalid_argument(std::string(who) + ": xs and values must have equal length");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument(std::string(who) + ": at least two knots required");
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(vs[i])) {
      throw std::invalid_argument(std::string(who) + ": knots must be finite");
    }
    if (i > 0 && !(xs[i] > xs[i - 1])) {
      throw std::invalid_argument(std::string(who) + ": xs must be strictly increasing");
    }
  }
}

/// Locates the segment [xs[i], xs[i+1]] containing x (x within the grid).
std::size_t segment_of(const std::vector<double>& xs, double x) {
  std::size_t hi = static_cast<std::size_t>(std::upper_bound(xs.begin(), xs.end(), x) -
                                            xs.begin());
  if (hi >= xs.size()) hi = xs.size() - 1;
  if (hi == 0) hi = 1;
  return hi - 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// TabulatedPdf
// ---------------------------------------------------------------------------

TabulatedPdf::TabulatedPdf(std::vector<double> xs, std::vector<double> fs)
    : xs_(std::move(xs)), input_(fs), fs_(std::move(fs)) {
  validate_grid(xs_, fs_, "TabulatedPdf");
  for (double f : fs_) {
    if (f < 0.0) throw std::invalid_argument("TabulatedPdf: density values must be >= 0");
  }
  double mass = 0.0;
  for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
    mass += 0.5 * (fs_[i] + fs_[i + 1]) * (xs_[i + 1] - xs_[i]);
  }
  if (!(mass > 0.0)) {
    throw std::invalid_argument("TabulatedPdf: total mass must be positive");
  }
  for (double& f : fs_) f /= mass;

  cum_.resize(xs_.size());
  cum_[0] = 0.0;
  double m1 = 0.0, m2 = 0.0;
  for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
    const double x0 = xs_[i], x1 = xs_[i + 1];
    const double h = x1 - x0;
    cum_[i + 1] = cum_[i] + 0.5 * (fs_[i] + fs_[i + 1]) * h;
    // f(x) = c0 + c1 x on the segment; exact polynomial moments.
    const double c1 = (fs_[i + 1] - fs_[i]) / h;
    const double c0 = fs_[i] - c1 * x0;
    const double d2 = x1 * x1 - x0 * x0;
    const double d3 = x1 * x1 * x1 - x0 * x0 * x0;
    const double d4 = x1 * x1 * x1 * x1 - x0 * x0 * x0 * x0;
    m1 += c0 * d2 / 2.0 + c1 * d3 / 3.0;
    m2 += c0 * d3 / 3.0 + c1 * d4 / 4.0;
  }
  cum_.back() = 1.0;
  mean_ = m1;
  variance_ = std::max(0.0, m2 - m1 * m1);
}

double TabulatedPdf::sample(util::RngStream& rng) const { return quantile(rng.uniform01()); }

double TabulatedPdf::pdf(double x) const {
  if (x < xs_.front() || x > xs_.back()) return 0.0;
  const std::size_t i = segment_of(xs_, x);
  const double h = xs_[i + 1] - xs_[i];
  const double t = (x - xs_[i]) / h;
  return fs_[i] + (fs_[i + 1] - fs_[i]) * t;
}

double TabulatedPdf::cdf(double x) const {
  if (x <= xs_.front()) return 0.0;
  if (x >= xs_.back()) return 1.0;
  const std::size_t i = segment_of(xs_, x);
  const double h = xs_[i + 1] - xs_[i];
  const double t = x - xs_[i];
  const double c1 = (fs_[i + 1] - fs_[i]) / h;
  return std::min(1.0, cum_[i] + fs_[i] * t + 0.5 * c1 * t * t);
}

double TabulatedPdf::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("TabulatedPdf::quantile: p outside [0, 1]");
  }
  if (p <= 0.0) return xs_.front();
  if (p >= 1.0) return xs_.back();
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), p);
  std::size_t hi = static_cast<std::size_t>(it - cum_.begin());
  if (hi >= cum_.size()) hi = cum_.size() - 1;
  const std::size_t lo = hi - 1;
  const double seg_mass = cum_[hi] - cum_[lo];
  if (seg_mass <= 0.0) return xs_[lo];
  const double h = xs_[hi] - xs_[lo];
  const double target = p - cum_[lo];
  const double f0 = fs_[lo];
  const double c1 = (fs_[hi] - fs_[lo]) / h;
  // Stable quadratic root of 0.5 c1 t^2 + f0 t = target (exact for c1 -> 0).
  const double disc = std::sqrt(std::max(0.0, f0 * f0 + 2.0 * c1 * target));
  const double denom = f0 + disc;
  const double t = denom > 0.0 ? 2.0 * target / denom : 0.0;
  return xs_[lo] + std::clamp(t, 0.0, h);
}

std::string TabulatedPdf::describe() const {
  return "pdf_table(" + std::to_string(xs_.size()) + " knots on [" + detail::format_value(xs_.front()) +
         ", " + detail::format_value(xs_.back()) + "])";
}

DistributionPtr TabulatedPdf::clone() const { return std::make_unique<TabulatedPdf>(*this); }

// ---------------------------------------------------------------------------
// TabulatedCdf
// ---------------------------------------------------------------------------

TabulatedCdf::TabulatedCdf(std::vector<double> xs, std::vector<double> Fs)
    : xs_(std::move(xs)), input_(Fs), fs_(std::move(Fs)) {
  validate_grid(xs_, fs_, "TabulatedCdf");
  for (std::size_t i = 1; i < fs_.size(); ++i) {
    if (fs_[i] < fs_[i - 1]) {
      throw std::invalid_argument("TabulatedCdf: CDF values must be non-decreasing");
    }
  }
  const double f0 = fs_.front();
  const double span = fs_.back() - f0;
  if (!(span > 0.0)) {
    throw std::invalid_argument("TabulatedCdf: CDF must increase from front to back");
  }
  for (double& f : fs_) f = (f - f0) / span;
  fs_.front() = 0.0;
  fs_.back() = 1.0;

  double m1 = 0.0, m2 = 0.0;
  for (std::size_t i = 0; i + 1 < xs_.size(); ++i) {
    const double x0 = xs_[i], x1 = xs_[i + 1];
    const double density = (fs_[i + 1] - fs_[i]) / (x1 - x0);
    m1 += density * (x1 * x1 - x0 * x0) / 2.0;
    m2 += density * (x1 * x1 * x1 - x0 * x0 * x0) / 3.0;
  }
  mean_ = m1;
  variance_ = std::max(0.0, m2 - m1 * m1);
}

double TabulatedCdf::sample(util::RngStream& rng) const { return quantile(rng.uniform01()); }

double TabulatedCdf::pdf(double x) const {
  if (x < xs_.front() || x > xs_.back()) return 0.0;
  const std::size_t i = segment_of(xs_, x);
  return (fs_[i + 1] - fs_[i]) / (xs_[i + 1] - xs_[i]);
}

double TabulatedCdf::cdf(double x) const {
  if (x <= xs_.front()) return 0.0;
  if (x >= xs_.back()) return 1.0;
  const std::size_t i = segment_of(xs_, x);
  const double t = (x - xs_[i]) / (xs_[i + 1] - xs_[i]);
  return fs_[i] + (fs_[i + 1] - fs_[i]) * t;
}

double TabulatedCdf::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("TabulatedCdf::quantile: p outside [0, 1]");
  }
  if (p >= 1.0) return xs_.back();
  const auto it = std::upper_bound(fs_.begin(), fs_.end(), p);
  std::size_t hi = static_cast<std::size_t>(it - fs_.begin());
  if (hi >= fs_.size()) hi = fs_.size() - 1;
  const std::size_t lo = hi - 1;
  const double span = fs_[hi] - fs_[lo];
  if (span <= 0.0) return xs_[lo];
  return xs_[lo] + (xs_[hi] - xs_[lo]) * (p - fs_[lo]) / span;
}

std::string TabulatedCdf::describe() const {
  return "cdf_table(" + std::to_string(xs_.size()) + " knots on [" + detail::format_value(xs_.front()) +
         ", " + detail::format_value(xs_.back()) + "])";
}

DistributionPtr TabulatedCdf::clone() const { return std::make_unique<TabulatedCdf>(*this); }

}  // namespace wlgen::dist
