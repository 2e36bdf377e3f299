#include "dist/cdf_table.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace wlgen::dist {

CdfTable::CdfTable(std::vector<double> xs, std::vector<double> Fs)
    : xs_(std::move(xs)), fs_(std::move(Fs)) {
  if (xs_.size() != fs_.size()) {
    throw std::invalid_argument("CdfTable: xs and Fs must have equal length");
  }
  if (xs_.size() < 2) {
    throw std::invalid_argument("CdfTable: at least two knots required");
  }
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    if (!std::isfinite(xs_[i]) || !std::isfinite(fs_[i])) {
      throw std::invalid_argument("CdfTable: knots must be finite");
    }
    if (i > 0 && !(xs_[i] > xs_[i - 1])) {
      throw std::invalid_argument("CdfTable: xs must be strictly increasing");
    }
    if (i > 0 && fs_[i] < fs_[i - 1]) {
      throw std::invalid_argument("CdfTable: Fs must be non-decreasing");
    }
  }
  const double f0 = fs_.front();
  const double span = fs_.back() - f0;
  if (!(span > 0.0)) {
    throw std::invalid_argument("CdfTable: Fs must increase from front to back");
  }
  for (double& f : fs_) f = (f - f0) / span;
  fs_.front() = 0.0;
  fs_.back() = 1.0;
  build_alias_table();
}

void CdfTable::build_alias_table() {
  // Walker/Vose over the m = size()-1 segments, segment i carrying
  // probability mass fs_[i+1] - fs_[i] (masses sum to exactly 1).
  const std::size_t m = xs_.size() - 1;
  alias_prob_.assign(m, 1.0);
  alias_idx_.resize(m);
  std::vector<double> scaled(m);
  std::vector<std::uint32_t> small, large;
  small.reserve(m);
  large.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    alias_idx_[i] = static_cast<std::uint32_t>(i);
    scaled[i] = (fs_[i + 1] - fs_[i]) * static_cast<double>(m);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_prob_[s] = scaled[s];
    alias_idx_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Whatever is left (rounding residue) fills its own column completely —
  // alias_prob_ is already 1.0 there.
}

double CdfTable::sample(util::RngStream& rng) const {
  const std::size_t m = xs_.size() - 1;
  const double scaled_u = rng.uniform01() * static_cast<double>(m);
  std::size_t column = static_cast<std::size_t>(scaled_u);
  if (column >= m) column = m - 1;  // guards fp rounding at scaled_u == m
  const double frac = scaled_u - static_cast<double>(column);
  const double threshold = alias_prob_[column];
  // Recycle the fractional part: conditioned on the branch it is again a
  // uniform [0,1) variate, so one RNG draw covers both segment selection and
  // the intra-segment position.
  std::size_t segment;
  double v;
  if (frac < threshold) {
    segment = column;
    v = frac / threshold;
  } else {
    segment = alias_idx_[column];
    v = (frac - threshold) / (1.0 - threshold);
  }
  return xs_[segment] + (xs_[segment + 1] - xs_[segment]) * v;
}

double CdfTable::sample_binary(util::RngStream& rng) const {
  // Plain inverse-transform sampling; quantile() is the single copy of the
  // binary-search inversion both paths are validated against.
  return quantile(rng.uniform01());
}

double CdfTable::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("CdfTable::quantile: p outside [0, 1]");
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

double CdfTable::cdf(double x) const {
  if (x <= xs_.front()) return 0.0;
  if (x >= xs_.back()) return 1.0;
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return fs_[lo] + (fs_[hi] - fs_[lo]) * t;
}

std::string CdfTable::serialize() const {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    out << xs_[i] << ' ' << fs_[i] << '\n';
  }
  return out.str();
}

CdfTable CdfTable::parse(const std::string& text) {
  std::istringstream in(text);
  std::vector<double> xs, fs;
  double x = 0.0, f = 0.0;
  while (in >> x >> f) {
    xs.push_back(x);
    fs.push_back(f);
  }
  if (!in.eof()) {
    throw std::invalid_argument("CdfTable::parse: malformed \"x F\" line");
  }
  return CdfTable(std::move(xs), std::move(fs));
}

CdfTable build_cdf_table(const Distribution& d, std::size_t points) {
  if (points < 2) {
    throw std::invalid_argument("build_cdf_table: at least two points required");
  }
  double p_lo = 0.0, p_hi = 1.0;
  double x_lo = d.lower_bound();
  double x_hi = d.upper_bound();
  if (!std::isfinite(x_lo)) {
    p_lo = 1e-6;
    x_lo = d.quantile(p_lo);
  }
  if (!std::isfinite(x_hi)) {
    p_hi = 1.0 - 1e-5;
    x_hi = d.quantile(p_hi);
  }
  std::vector<double> xs, fs;
  xs.reserve(points);
  fs.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    const double p = p_lo + (p_hi - p_lo) * t;
    double x;
    if (i == 0) {
      x = x_lo;
    } else if (i + 1 == points) {
      x = x_hi;
    } else {
      x = d.quantile(p);
    }
    // Flat quantile stretches (atoms, empirical ties) collapse to one knot.
    if (!xs.empty() && !(x > xs.back())) continue;
    xs.push_back(x);
    fs.push_back(p);
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("build_cdf_table: distribution support is degenerate");
  }
  return CdfTable(std::move(xs), std::move(fs));
}

}  // namespace wlgen::dist
