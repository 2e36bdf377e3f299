#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/distribution.h"

namespace wlgen::dist {

/// A tabulated CDF — the artefact the paper's GDS hands to the FSC and USIM
/// ("Generate CDF tables", Figure 4.1).  Knots (x_i, F_i) define a
/// piecewise-linear CDF; sampling interpolates between knots.
///
/// Two sampling paths share the same distribution:
///
///  - sample()         — Walker/Vose alias fast path.  A precomputed alias
///    table over the size()-1 segments turns segment selection into one
///    array lookup + one comparison, so a draw costs O(1) regardless of
///    table resolution (16-bin and 4096-bin tables sample at the same
///    speed).  The single uniform draw is recycled: its scaled fractional
///    part selects the alias column, and the within-column remainder is
///    rescaled into the intra-segment position.
///  - sample_binary()  — classic O(log n) binary search over the F column;
///    kept as the reference path for correctness tests.
///
/// F values are normalised to [0, 1] at construction.
class CdfTable {
 public:
  /// Throws std::invalid_argument unless xs is strictly increasing, Fs is
  /// non-decreasing with Fs.front() < Fs.back(), and both have >= 2 entries
  /// of equal length.
  CdfTable(std::vector<double> xs, std::vector<double> Fs);

  /// Number of knots.
  std::size_t size() const { return xs_.size(); }

  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& Fs() const { return fs_; }

  /// O(1) alias-method draw (the default hot path).
  double sample(util::RngStream& rng) const;

  /// O(log n) binary-search draw; statistically identical to sample().
  double sample_binary(util::RngStream& rng) const;

  /// Piecewise-linear inverse CDF; p in [0, 1].
  double quantile(double p) const;

  /// Piecewise-linear CDF (clamped to [0, 1] outside the knots).
  double cdf(double x) const;

  /// "x F" lines, one knot per line; parse() round-trips.
  std::string serialize() const;
  static CdfTable parse(const std::string& text);

 private:
  void build_alias_table();

  std::vector<double> xs_;
  std::vector<double> fs_;  ///< normalised to fs_.front()==0, fs_.back()==1

  // Walker/Vose alias table over the size()-1 inter-knot segments.
  std::vector<double> alias_prob_;         ///< acceptance threshold per column
  std::vector<std::uint32_t> alias_idx_;   ///< alias segment per column
};

/// Samples `points` quantiles of `d` (evenly spaced in probability, with the
/// unbounded tails clipped at 1e-6 / 1 - 1e-5) into a CdfTable.
/// Throws std::invalid_argument when points < 2.
CdfTable build_cdf_table(const Distribution& d, std::size_t points);

}  // namespace wlgen::dist
