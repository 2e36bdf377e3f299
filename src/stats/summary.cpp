#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wlgen::stats {

void RunningSummary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningSummary::merge(const RunningSummary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningSummary::mean() const {
  if (count_ == 0) throw std::logic_error("RunningSummary::mean: no observations");
  return mean_;
}

double RunningSummary::variance() const {
  if (count_ == 0) throw std::logic_error("RunningSummary::variance: no observations");
  return m2_ / static_cast<double>(count_);
}

double RunningSummary::stddev() const { return std::sqrt(variance()); }

double RunningSummary::min() const {
  if (count_ == 0) throw std::logic_error("RunningSummary::min: no observations");
  return min_;
}

double RunningSummary::max() const {
  if (count_ == 0) throw std::logic_error("RunningSummary::max: no observations");
  return max_;
}

std::string RunningSummary::mean_std_string(int precision) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.*f(%.*f)", precision, mean(), precision, stddev());
  return buf;
}

namespace {

/// Two-sided Student-t critical values t_{df, 1-alpha/2} for df 1..30, then
/// the normal-approximation value for larger df.  Standard published tables,
/// 3 decimals — tabulated rather than computed so the CI is an exact
/// deterministic function of the data (no special-function library drift).
constexpr double kT90[] = {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860,
                           1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746,
                           1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
                           1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
constexpr double kT95[] = {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
                           2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                           2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
                           2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
constexpr double kT99[] = {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355,
                           3.250,  3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921,
                           2.898,  2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
                           2.787,  2.779, 2.771, 2.763, 2.756, 2.750};
constexpr std::size_t kTableDf = 30;

double t_critical(double confidence, std::size_t df) {
  const double* table = nullptr;
  double z = 0.0;
  if (confidence == 0.90) {
    table = kT90;
    z = 1.645;
  } else if (confidence == 0.95) {
    table = kT95;
    z = 1.960;
  } else if (confidence == 0.99) {
    table = kT99;
    z = 2.576;
  } else {
    throw std::invalid_argument(
        "mean_confidence_interval: supported confidence levels are 0.90, 0.95, 0.99");
  }
  return df <= kTableDf ? table[df - 1] : z;
}

}  // namespace

MeanCi mean_confidence_interval(const std::vector<double>& data, double confidence) {
  if (data.empty()) throw std::invalid_argument("mean_confidence_interval: empty data");
  MeanCi out;
  out.n = data.size();
  double sum = 0.0;
  for (double v : data) sum += v;
  out.mean = sum / static_cast<double>(out.n);
  if (out.n < 2) {
    t_critical(confidence, 1);  // still validate the confidence level
    return out;
  }
  double ss = 0.0;
  for (double v : data) ss += (v - out.mean) * (v - out.mean);
  const double sample_var = ss / static_cast<double>(out.n - 1);
  out.half_width = t_critical(confidence, out.n - 1) *
                   std::sqrt(sample_var / static_cast<double>(out.n));
  return out;
}

}  // namespace wlgen::stats
