#include "util/numeric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wlgen::util {

double simpson(const std::function<double(double)>& f, double a, double b, std::size_t n) {
  if (b < a) throw std::invalid_argument("simpson: b < a");
  if (a == b) return 0.0;
  if (n < 2) n = 2;
  if (n % 2 != 0) ++n;
  const double h = (b - a) / static_cast<double>(n);
  double sum = f(a) + f(b);
  for (std::size_t i = 1; i < n; ++i) {
    const double x = a + h * static_cast<double>(i);
    sum += f(x) * (i % 2 == 0 ? 2.0 : 4.0);
  }
  return sum * h / 3.0;
}

double log_gamma(double x) {
  if (x <= 0.0) throw std::invalid_argument("log_gamma: x must be > 0");
  return std::lgamma(x);
}

namespace {

// Series expansion of P(a, x); converges quickly for x < a + 1.
double gamma_p_series(double a, double x) {
  const int max_iter = 500;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < max_iter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued-fraction evaluation of Q(a, x); good for x >= a + 1.
double gamma_q_contfrac(double a, double x) {
  const int max_iter = 500;
  const double fpmin = std::numeric_limits<double>::min() / 1e-30;
  double b = x + 1.0 - a;
  double c = 1.0 / fpmin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= max_iter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = b + an / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (a <= 0.0) throw std::invalid_argument("regularized_gamma_p: a must be > 0");
  if (x < 0.0) throw std::invalid_argument("regularized_gamma_p: x must be >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_contfrac(a, x);
}

bool approx_equal(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace wlgen::util
