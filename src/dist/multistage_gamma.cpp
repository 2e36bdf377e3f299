#include "dist/multistage_gamma.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/numeric.h"
#include "util/rng.h"

namespace wlgen::dist {

MultiStageGamma::MultiStageGamma(std::vector<GammaStage> stages) : stages_(std::move(stages)) {
  if (stages_.empty()) {
    throw std::invalid_argument("MultiStageGamma: at least one stage required");
  }
  double total = 0.0;
  for (const auto& st : stages_) {
    if (!(std::isfinite(st.weight) && st.weight > 0.0)) {
      throw std::invalid_argument("MultiStageGamma: weights must be > 0");
    }
    if (!(std::isfinite(st.alpha) && st.alpha > 0.0)) {
      throw std::invalid_argument("MultiStageGamma: alpha must be > 0");
    }
    if (!(std::isfinite(st.theta) && st.theta > 0.0)) {
      throw std::invalid_argument("MultiStageGamma: theta must be > 0");
    }
    if (!std::isfinite(st.offset)) {
      throw std::invalid_argument("MultiStageGamma: offset must be finite");
    }
    total += st.weight;
  }

  cum_weights_.reserve(stages_.size());
  log_norm_.reserve(stages_.size());
  inv_theta_.reserve(stages_.size());
  double cum = 0.0;
  double m2 = 0.0;
  lower_ = std::numeric_limits<double>::infinity();
  for (auto& st : stages_) {
    st.weight /= total;
    cum += st.weight;
    cum_weights_.push_back(cum);
    log_norm_.push_back(util::log_gamma(st.alpha) + st.alpha * std::log(st.theta));
    inv_theta_.push_back(1.0 / st.theta);
    const double stage_mean = st.offset + st.alpha * st.theta;
    const double stage_var = st.alpha * st.theta * st.theta;
    mean_ += st.weight * stage_mean;
    m2 += st.weight * (stage_var + stage_mean * stage_mean);
    lower_ = std::min(lower_, st.offset);
  }
  cum_weights_.back() = 1.0;
  variance_ = m2 - mean_ * mean_;
}

MultiStageGamma MultiStageGamma::paper_example_a() {
  return MultiStageGamma({{1.0, 1.4, 12.4, 0.0}});
}

MultiStageGamma MultiStageGamma::paper_example_b() {
  return MultiStageGamma({{1.0, 1.5, 25.4, 12.0}});
}

MultiStageGamma MultiStageGamma::paper_example_c() {
  return MultiStageGamma(
      {{0.7, 1.4, 12.4, 0.0}, {0.2, 1.5, 12.4, 23.0}, {0.1, 1.5, 12.3, 41.0}});
}

double MultiStageGamma::sample(util::RngStream& rng) const {
  const double u = rng.uniform01();
  std::size_t k = 0;
  const std::size_t last = cum_weights_.size() - 1;
  for (std::size_t j = 0; j < last; ++j) {
    k += static_cast<std::size_t>(u >= cum_weights_[j]);
  }
  const GammaStage& st = stages_[k];
  return st.offset + rng.gamma(st.alpha, st.theta);
}

double MultiStageGamma::pdf(double x) const {
  double f = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const double y = x - stages_[i].offset;
    if (y <= 0.0) continue;
    const double a = stages_[i].alpha;
    f += stages_[i].weight *
         std::exp((a - 1.0) * std::log(y) - y * inv_theta_[i] - log_norm_[i]);
  }
  return f;
}

double MultiStageGamma::cdf(double x) const {
  double c = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const double y = x - stages_[i].offset;
    if (y > 0.0) {
      c += stages_[i].weight * util::regularized_gamma_p(stages_[i].alpha, y * inv_theta_[i]);
    }
  }
  return std::min(c, 1.0);
}

double MultiStageGamma::upper_bound() const { return std::numeric_limits<double>::infinity(); }

std::string MultiStageGamma::describe() const {
  std::ostringstream out;
  out.precision(12);
  out << "gamma(";
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i != 0) out << ", ";
    out << "(w=" << stages_[i].weight << ", alpha=" << stages_[i].alpha
        << ", theta=" << stages_[i].theta << ", s=" << stages_[i].offset << ")";
  }
  out << ")";
  return out.str();
}

DistributionPtr MultiStageGamma::clone() const {
  return std::make_unique<MultiStageGamma>(*this);
}

}  // namespace wlgen::dist
