#pragma once

#include <cstddef>
#include <functional>

namespace wlgen::util {

/// Composite Simpson integration of f over [a, b] with n subintervals
/// (n is rounded up to the next even number; n >= 2).
///
/// This is the paper's "Sympson's method" used by the GDS to turn PDF tables
/// into CDF tables (paper section 4.1.1).
double simpson(const std::function<double(double)>& f, double a, double b, std::size_t n);

/// Regularised lower incomplete gamma function P(a, x) = gamma(a, x) / Gamma(a).
/// Uses the series expansion for x < a + 1 and the continued fraction
/// otherwise; accurate to ~1e-12 for a in (0, 1e6).
double regularized_gamma_p(double a, double x);

/// log Gamma(x) for x > 0 (Lanczos approximation).
double log_gamma(double x);

/// True when |a - b| <= tol * max(1, |a|, |b|).
bool approx_equal(double a, double b, double tol = 1e-9);

}  // namespace wlgen::util
