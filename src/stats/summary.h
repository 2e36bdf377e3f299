#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wlgen::stats {

/// Online mean / variance / extrema accumulator (Welford's algorithm).
///
/// Used everywhere a paper table reports "mean(std)" — e.g. Table 5.3's
/// access size and response time columns — without buffering every sample.
class RunningSummary {
 public:
  /// Adds one observation.
  void add(double x);

  /// Merges another summary into this one (parallel Welford combination).
  void merge(const RunningSummary& other);

  std::size_t count() const { return count_; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  double mean() const;
  /// Population variance (division by n).
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// "mean(std)" with the given precision, matching the paper's table style.
  std::string mean_std_string(int precision = 2) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A cross-replication point estimate: sample mean of n independent
/// replication results with a symmetric two-sided confidence half-width.
/// This is what the contended runner reports per sweep point (the response
/// curves of Figures 5.6–5.11 averaged over independent replications).
struct MeanCi {
  double mean = 0.0;
  double half_width = 0.0;  ///< 0 when n < 2 (one sample carries no spread)
  std::size_t n = 0;

  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
};

/// Mean and two-sided Student-t confidence interval of independent samples.
/// Supported confidence levels: 0.90, 0.95 (default), 0.99 — the critical
/// values are tabulated (exact to published 3-decimal tables for df <= 30,
/// normal-approximation beyond), so the result is a fixed deterministic
/// function of the data.  Uses the sample (n-1) variance, unlike
/// RunningSummary::variance which is the population form.  Throws
/// std::invalid_argument on empty data or an unsupported confidence level.
MeanCi mean_confidence_interval(const std::vector<double>& data, double confidence = 0.95);

}  // namespace wlgen::stats
