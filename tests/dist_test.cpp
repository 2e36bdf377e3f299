// Unit and property tests for src/dist: every distribution family must have
// a consistent pdf/cdf/mean/variance/quantile/sample contract; CDF tables
// are validated against known inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "dist/basic.h"
#include "dist/cdf_table.h"
#include "dist/multistage_gamma.h"
#include "dist/phase_exponential.h"
#include "dist/tabulated.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace wlgen::dist {
namespace {

util::RngStream test_rng() { return util::RngStream(20260611, "dist-test"); }

// ---------------------------------------------------------------------------
// Family-generic property tests: every distribution must satisfy the same
// contract, so sweep a representative zoo through one parameterized suite.
// ---------------------------------------------------------------------------

struct Zoo {
  std::string name;
  DistributionPtr dist;
};

std::vector<std::string> zoo_names() {
  return {"exponential", "shifted_exponential", "uniform",      "phase_exp_1",
          "phase_exp_3",  "gamma_1",             "gamma_3",      "tab_pdf",
          "tab_cdf"};
}

DistributionPtr make_zoo(const std::string& name) {
  if (name == "exponential") return std::make_unique<ExponentialDistribution>(50.0);
  if (name == "shifted_exponential") return std::make_unique<ExponentialDistribution>(30.0, 10.0);
  if (name == "uniform") return std::make_unique<UniformDistribution>(5.0, 25.0);
  if (name == "phase_exp_1") {
    return std::make_unique<PhaseTypeExponential>(PhaseTypeExponential::paper_example_a());
  }
  if (name == "phase_exp_3") {
    return std::make_unique<PhaseTypeExponential>(PhaseTypeExponential::paper_example_c());
  }
  if (name == "gamma_1") {
    return std::make_unique<MultiStageGamma>(MultiStageGamma::paper_example_b());
  }
  if (name == "gamma_3") {
    return std::make_unique<MultiStageGamma>(MultiStageGamma::paper_example_c());
  }
  if (name == "tab_pdf") {
    return std::make_unique<TabulatedPdf>(std::vector<double>{0, 10, 20, 30, 40},
                                          std::vector<double>{0.0, 2.0, 3.0, 1.0, 0.0});
  }
  if (name == "tab_cdf") {
    return std::make_unique<TabulatedCdf>(std::vector<double>{0, 5, 15, 40},
                                          std::vector<double>{0.0, 0.3, 0.8, 1.0});
  }
  throw std::logic_error("unknown zoo member " + name);
}

class DistributionContract : public ::testing::TestWithParam<std::string> {};

TEST_P(DistributionContract, CdfIsMonotoneNonDecreasingInZeroOneRange) {
  const auto d = make_zoo(GetParam());
  const double lo = d->quantile(0.001);
  const double hi = d->quantile(0.999);
  double prev = -1.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = lo + (hi - lo) * i / 200.0;
    const double c = d->cdf(x);
    EXPECT_GE(c, prev - 1e-12) << "at x=" << x;
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST_P(DistributionContract, PdfIsNonNegative) {
  const auto d = make_zoo(GetParam());
  const double lo = d->quantile(0.001) - 1.0;
  const double hi = d->quantile(0.999) + 1.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = lo + (hi - lo) * i / 200.0;
    EXPECT_GE(d->pdf(x), 0.0) << "at x=" << x;
  }
}

TEST_P(DistributionContract, PdfIntegratesToOne) {
  const auto d = make_zoo(GetParam());
  double lo = d->lower_bound();
  if (!std::isfinite(lo)) lo = d->quantile(1e-6);
  double hi = d->upper_bound();
  if (!std::isfinite(hi)) hi = d->quantile(1.0 - 1e-7);
  const double mass =
      util::simpson([&](double x) { return d->pdf(x); }, lo, hi, 20000);
  EXPECT_NEAR(mass, 1.0, 0.02) << d->describe();
}

TEST_P(DistributionContract, QuantileInvertsCdf) {
  const auto d = make_zoo(GetParam());
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double x = d->quantile(p);
    EXPECT_NEAR(d->cdf(x), p, 0.01) << d->describe() << " p=" << p;
  }
}

TEST_P(DistributionContract, SampleMeanMatchesAnalyticMean) {
  const auto d = make_zoo(GetParam());
  auto rng = test_rng();
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += d->sample(rng);
  const double tolerance = 4.0 * d->stddev() / std::sqrt(static_cast<double>(n)) + 1e-6;
  EXPECT_NEAR(sum / n, d->mean(), tolerance) << d->describe();
}

TEST_P(DistributionContract, SampleVarianceMatchesAnalyticVariance) {
  const auto d = make_zoo(GetParam());
  auto rng = test_rng();
  double sum = 0.0, sum2 = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double v = d->sample(rng);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(var, d->variance(), 0.15 * d->variance() + 1e-6) << d->describe();
}

TEST_P(DistributionContract, SamplesLieInSupport) {
  const auto d = make_zoo(GetParam());
  auto rng = test_rng();
  for (int i = 0; i < 2000; ++i) {
    const double v = d->sample(rng);
    EXPECT_GE(v, d->lower_bound() - 1e-9);
    EXPECT_LE(v, d->upper_bound() + 1e-9);
  }
}

TEST_P(DistributionContract, CloneIsEquivalent) {
  const auto d = make_zoo(GetParam());
  const auto copy = d->clone();
  for (double p : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(copy->quantile(p), d->quantile(p));
  }
  EXPECT_DOUBLE_EQ(copy->mean(), d->mean());
  EXPECT_EQ(copy->describe(), d->describe());
}

TEST_P(DistributionContract, CdfTableSamplingMatchesDirectMoments) {
  const auto d = make_zoo(GetParam());
  const CdfTable table = build_cdf_table(*d, 512);
  auto rng = test_rng();
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += table.sample(rng);
  EXPECT_NEAR(sum / n, d->mean(), 0.05 * (std::fabs(d->mean()) + d->stddev()) + 1e-6)
      << d->describe();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DistributionContract, ::testing::ValuesIn(zoo_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Family-specific tests.
// ---------------------------------------------------------------------------

TEST(Constant, Degenerate) {
  ConstantDistribution d(5.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(4.999), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(5.0), 1.0);
  auto rng = test_rng();
  EXPECT_DOUBLE_EQ(d.sample(rng), 5.0);
}

TEST(Exponential, ClosedForms) {
  ExponentialDistribution d(10.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 12.0);
  EXPECT_DOUBLE_EQ(d.variance(), 100.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.0);
  EXPECT_NEAR(d.cdf(12.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.quantile(0.5), 2.0 + 10.0 * std::log(2.0), 1e-12);
  EXPECT_THROW(ExponentialDistribution(0.0), std::invalid_argument);
}

TEST(PhaseExp, PaperEquationForm) {
  // f(x) = sum w_i (1/theta_i) exp(-(x - s_i)/theta_i) on x >= s_i.
  PhaseTypeExponential d({{0.4, 12.7, 0.0}, {0.6, 18.2, 18.0}});
  const double x = 25.0;
  const double expected = 0.4 * std::exp(-x / 12.7) / 12.7 +
                          0.6 * std::exp(-(x - 18.0) / 18.2) / 18.2;
  EXPECT_NEAR(d.pdf(x), expected, 1e-12);
  // Before the second phase starts only the first contributes.
  EXPECT_NEAR(d.pdf(10.0), 0.4 * std::exp(-10.0 / 12.7) / 12.7, 1e-12);
}

TEST(PhaseExp, WeightsNormalized) {
  PhaseTypeExponential d({{2.0, 10.0, 0.0}, {2.0, 20.0, 0.0}});
  EXPECT_DOUBLE_EQ(d.phases()[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 0.5 * 10.0 + 0.5 * 20.0);
}

TEST(PhaseExp, MeanOfShiftedMixture) {
  PhaseTypeExponential d({{0.25, 5.0, 1.0}, {0.75, 10.0, 3.0}});
  EXPECT_DOUBLE_EQ(d.mean(), 0.25 * 6.0 + 0.75 * 13.0);
}

TEST(PhaseExp, RejectsBadPhases) {
  EXPECT_THROW(PhaseTypeExponential({}), std::invalid_argument);
  EXPECT_THROW(PhaseTypeExponential({{1.0, -1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(PhaseTypeExponential({{0.0, 1.0, 0.0}}), std::invalid_argument);
}

TEST(MultiGamma, PaperEquationForm) {
  // g(alpha, theta, y) = y^(a-1) e^(-y/theta) / (Gamma(a) theta^a).
  MultiStageGamma d({{1.0, 1.5, 25.4, 12.0}});
  const double x = 40.0;
  const double y = x - 12.0;
  const double expected = std::pow(y, 0.5) * std::exp(-y / 25.4) /
                          (std::tgamma(1.5) * std::pow(25.4, 1.5));
  EXPECT_NEAR(d.pdf(x), expected, 1e-12);
  EXPECT_DOUBLE_EQ(d.pdf(11.9), 0.0);
}

TEST(MultiGamma, MeanVarianceClosedForm) {
  MultiStageGamma d({{1.0, 3.0, 4.0, 2.0}});
  EXPECT_DOUBLE_EQ(d.mean(), 2.0 + 12.0);
  EXPECT_DOUBLE_EQ(d.variance(), 3.0 * 16.0);
}

TEST(MultiGamma, CdfViaIncompleteGamma) {
  MultiStageGamma d({{1.0, 2.0, 5.0, 0.0}});
  // P(2, 2) at x = 10 (y/theta = 2).
  EXPECT_NEAR(d.cdf(10.0), util::regularized_gamma_p(2.0, 2.0), 1e-12);
}

TEST(TabulatedPdf, NormalizesInput) {
  TabulatedPdf d({0.0, 1.0, 2.0}, {0.0, 4.0, 0.0});  // triangle, mass 4 -> 1
  EXPECT_NEAR(d.cdf(2.0), 1.0, 1e-12);
  EXPECT_NEAR(d.cdf(1.0), 0.5, 1e-12);
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
}

TEST(TabulatedPdf, RejectsBadInput) {
  EXPECT_THROW(TabulatedPdf({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(TabulatedPdf({0.0, 0.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(TabulatedPdf({0.0, 1.0}, {-1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(TabulatedPdf({0.0, 1.0}, {0.0, 0.0}), std::invalid_argument);
}

TEST(TabulatedCdf, RescalesToUnitRange) {
  TabulatedCdf d({0.0, 1.0, 2.0}, {0.2, 0.5, 0.8});  // rescaled to [0,1]
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 1.0);
  EXPECT_NEAR(d.cdf(1.0), 0.5, 1e-12);
}

TEST(CdfTableClass, RoundTripsSerialization) {
  ExponentialDistribution d(100.0);
  const CdfTable table = build_cdf_table(d, 64);
  const CdfTable parsed = CdfTable::parse(table.serialize());
  ASSERT_EQ(parsed.size(), table.size());
  for (double p : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(parsed.quantile(p), table.quantile(p), 1e-9);
  }
}

TEST(CdfTableClass, QuantileAccuracyImprovesWithResolution) {
  ExponentialDistribution d(100.0);
  const CdfTable coarse = build_cdf_table(d, 8);
  const CdfTable fine = build_cdf_table(d, 1024);
  double coarse_err = 0.0, fine_err = 0.0;
  for (double p = 0.05; p < 0.95; p += 0.05) {
    coarse_err += std::fabs(coarse.quantile(p) - d.quantile(p));
    fine_err += std::fabs(fine.quantile(p) - d.quantile(p));
  }
  EXPECT_LT(fine_err, coarse_err);
}

// ---------------------------------------------------------------------------
// Alias-method fast path (DESIGN.md "CDF tables"): the O(1) Walker/Vose path
// and the O(log n) binary-search path sample the same piecewise-linear CDF,
// and each is deterministic per (seed, stream id).
// ---------------------------------------------------------------------------

TEST(CdfTableAlias, BothPathsPassChiSquaredAgainstTableCdf) {
  ExponentialDistribution d(100.0);
  const CdfTable table = build_cdf_table(d, 256);
  constexpr int kBins = 20;
  constexpr int kSamples = 50000;
  // Equal-probability bins of the table's own (exact) CDF.
  std::vector<double> edges;
  for (int b = 1; b < kBins; ++b) {
    edges.push_back(table.quantile(static_cast<double>(b) / kBins));
  }
  for (const bool use_alias : {true, false}) {
    util::RngStream rng(777, use_alias ? "alias" : "binary");
    std::vector<double> counts(kBins, 0.0);
    for (int i = 0; i < kSamples; ++i) {
      const double v = use_alias ? table.sample(rng) : table.sample_binary(rng);
      const auto bin = std::upper_bound(edges.begin(), edges.end(), v) - edges.begin();
      counts[static_cast<std::size_t>(bin)] += 1.0;
    }
    const double expected = static_cast<double>(kSamples) / kBins;
    double chi2 = 0.0;
    for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
    // 99.9th percentile of chi^2 with 19 dof is ~43.8.
    EXPECT_LT(chi2, 43.8) << (use_alias ? "alias path" : "binary path");
  }
}

TEST(CdfTableAlias, BothPathsPassKsAgainstAnalyticCdf) {
  ExponentialDistribution d(100.0);
  const CdfTable table = build_cdf_table(d, 1024);
  constexpr int kSamples = 50000;
  for (const bool use_alias : {true, false}) {
    util::RngStream rng(4242, use_alias ? "ks-alias" : "ks-binary");
    std::vector<double> draws;
    draws.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
      draws.push_back(use_alias ? table.sample(rng) : table.sample_binary(rng));
    }
    std::sort(draws.begin(), draws.end());
    double D = 0.0;
    const double n = static_cast<double>(draws.size());
    for (std::size_t i = 0; i < draws.size(); ++i) {
      const double F = d.cdf(draws[i]);
      D = std::max(D, std::max(F - static_cast<double>(i) / n,
                               static_cast<double>(i + 1) / n - F));
    }
    // KS critical value at alpha = 0.001 is ~1.95/sqrt(n) ~= 0.0087; leave
    // headroom for the 1024-knot discretisation of the analytic CDF.
    EXPECT_LT(D, 0.012) << (use_alias ? "alias path" : "binary path");
  }
}

TEST(CdfTableAlias, DeterministicPerSeedAndStreamOnBothPaths) {
  ExponentialDistribution d(50.0);
  const CdfTable table = build_cdf_table(d, 64);
  for (const bool use_alias : {true, false}) {
    util::RngStream a(123, "det");
    util::RngStream b(123, "det");
    for (int i = 0; i < 1000; ++i) {
      const double va = use_alias ? table.sample(a) : table.sample_binary(a);
      const double vb = use_alias ? table.sample(b) : table.sample_binary(b);
      ASSERT_DOUBLE_EQ(va, vb) << (use_alias ? "alias path" : "binary path");
    }
  }
  // Distinct stream ids must produce distinct sequences.
  util::RngStream a(123, "stream-1");
  util::RngStream b(123, "stream-2");
  int collisions = 0;
  for (int i = 0; i < 200; ++i) {
    if (table.sample(a) == table.sample(b)) ++collisions;
  }
  EXPECT_LT(collisions, 5);
}

TEST(CdfTableClass, RejectsDegenerateTables) {
  EXPECT_THROW(CdfTable({0.0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(CdfTable({0.0, 1.0}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(CdfTable({1.0, 0.0}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build_cdf_table(ExponentialDistribution(10.0), 1), std::invalid_argument);
}

// The golden digests hold bits that libm computes: the samplers' log1p,
// exp, pow and lgamma.  A libm that rounds one of these differently moves
// dozens of goldens at once, so this canary pins the bits on the arguments
// the samplers and the sketch use and names the cause.  The arguments pass
// through volatile so that the compiler cannot fold the calls.
TEST(LibmCanary, PinsTheBitsTheSamplersDependOn) {
  enum class Fn { log, log1p, exp, expm1, pow, lgamma };
  const struct {
    Fn fn;
    double a;
    double b;
    std::uint64_t bits;
  } cases[] = {
      {Fn::log, 0.3, 0, 0xbff34378fcbda721},
      {Fn::log, 1e-12, 0, 0xc03ba18a998fffa0},
      {Fn::log, 0.9999999999999999, 0, 0xbca0000000000000},
      {Fn::log, 2000.0, 0, 0x401e6752f96f46de},
      {Fn::log, 12.4, 0, 0x4004243e0c58f33c},
      {Fn::log, 1.05, 0, 0x3fa8fb063ef2c7f0},
      {Fn::log1p, -0.3, 0, 0xbfd6d3c324e13f4e},
      {Fn::log1p, -0.9999999999999999, 0, 0xc0425e4f7b2737fa},
      {Fn::log1p, -1e-17, 0, 0xbc670ef54646d497},
      {Fn::exp, -0.05, 0, 0x3fee7078b0a726a6},
      {Fn::exp, -7.25, 0, 0x3f47455fe323fafd},
      {Fn::exp, -700.0, 0, 0x00d14f2b0fb9307f},
      {Fn::exp, 3.5, 0, 0x40408ec721396bdb},
      {Fn::expm1, -0.05, 0, 0xbfa8f874f58d95a1},
      {Fn::expm1, -1e-10, 0, 0xbddb7cdfd9d1d693},
      {Fn::pow, 1.05, 37.0, 0x4018535c57737747},
      {Fn::pow, 1.05, 512.0, 0x4230713755803c35},
      {Fn::pow, 0.25, -1.0 / 1.5, 0x400428a2f98d728b},
      {Fn::pow, 1000.0, 2.5, 0x417e286789a07f2f},
      {Fn::lgamma, 1.4, 0, 0xbfbe9ef3b28cb1e8},
      {Fn::lgamma, 1.5, 0, 0xbfbeeb95b094c191},
      {Fn::lgamma, 2.0, 0, 0x0000000000000000},
      {Fn::lgamma, 3.0, 0, 0x3fe62e42fefa39ef},
      {Fn::lgamma, 0.7, 0, 0x3fd0b20c891cde74},
      {Fn::lgamma, 171.5, 0, 0x4086292532a8beaa},
  };
  for (const auto& c : cases) {
    volatile double va = c.a;
    volatile double vb = c.b;
    const double a = va;
    const double b = vb;
    double value = 0.0;
    switch (c.fn) {
      case Fn::log: value = std::log(a); break;
      case Fn::log1p: value = std::log1p(a); break;
      case Fn::exp: value = std::exp(a); break;
      case Fn::expm1: value = std::expm1(a); break;
      case Fn::pow: value = std::pow(a, b); break;
      case Fn::lgamma: value = std::lgamma(a); break;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value), c.bits)
        << "libm differs from the recording toolchain: function " << static_cast<int>(c.fn)
        << " at (" << a << ", " << b << ") gave " << value
        << "; the golden digests will not match on this libm";
  }
}

}  // namespace
}  // namespace wlgen::dist
