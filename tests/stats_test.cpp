// Unit tests for src/stats: Welford summaries, histograms, smoothing,
// KS / chi-square goodness-of-fit.

#include <gtest/gtest.h>

#include <cmath>

#include "dist/basic.h"
#include "stats/histogram.h"
#include "stats/smoothing.h"
#include "stats/summary.h"
#include "stats/tests.h"
#include "util/rng.h"

namespace wlgen::stats {
namespace {

TEST(RunningSummary, BasicMoments) {
  RunningSummary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummary, ThrowsOnEmpty) {
  RunningSummary s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.variance(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(RunningSummary, MergeMatchesCombinedStream) {
  util::RngStream rng(1, "merge");
  RunningSummary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningSummary, MergeWithEmpty) {
  RunningSummary a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(RunningSummary, MeanStdString) {
  RunningSummary s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(s.mean_std_string(2), "2.00(1.00)");
}

TEST(HistogramTest, CountsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps into first bin
  h.add(100.0);   // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(h.counts()[4], 2.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
}

TEST(HistogramTest, EdgesAndCenters) {
  Histogram h(0.0, 4.0, 4);
  const auto edges = h.edges();
  ASSERT_EQ(edges.size(), 5u);
  EXPECT_DOUBLE_EQ(edges[0], 0.0);
  EXPECT_DOUBLE_EQ(edges[4], 4.0);
  EXPECT_DOUBLE_EQ(h.centers()[0], 0.5);
}

TEST(HistogramTest, DensityIntegratesToOne) {
  util::RngStream rng(2, "hist");
  Histogram h(0.0, 50.0, 25);
  for (int i = 0; i < 5000; ++i) h.add(rng.uniform(0.0, 50.0));
  const auto density = h.density();
  double mass = 0.0;
  for (double d : density) mass += d * h.bin_width();
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(HistogramTest, FromDataSpansRange) {
  const auto h = Histogram::from_data({1.0, 2.0, 9.0}, 4);
  EXPECT_DOUBLE_EQ(h.low(), 1.0);
  EXPECT_DOUBLE_EQ(h.high(), 9.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_THROW(Histogram::from_data({}, 4), std::invalid_argument);
}

// All-equal data (a constant distribution, a single sample) must widen to
// the documented [lo, lo + 1) fallback instead of throwing on hi == lo, with
// every observation landing in bin 0.
TEST(HistogramTest, FromDataAllEqualWidensToUnitRange) {
  const auto h = Histogram::from_data({5.0, 5.0, 5.0}, 4);
  EXPECT_DOUBLE_EQ(h.low(), 5.0);
  EXPECT_DOUBLE_EQ(h.high(), 6.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.counts()[0], 3.0);
  for (std::size_t b = 1; b < h.bin_count(); ++b) EXPECT_DOUBLE_EQ(h.counts()[b], 0.0);

  const auto single = Histogram::from_data({-2.5}, 2);
  EXPECT_DOUBLE_EQ(single.low(), -2.5);
  EXPECT_DOUBLE_EQ(single.high(), -1.5);
  EXPECT_EQ(single.total(), 1u);
}

// --- cross-replication mean/CI (the contended runner's summary) -------------

TEST(MeanCiTest, MatchesStudentTByHand) {
  // {1,2,3}: mean 2, sample sd 1, t_{2, .975} = 4.303.
  const MeanCi ci = mean_confidence_interval({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ci.mean, 2.0);
  EXPECT_EQ(ci.n, 3u);
  EXPECT_NEAR(ci.half_width, 4.303 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(ci.lo(), ci.mean - ci.half_width);
  EXPECT_DOUBLE_EQ(ci.hi(), ci.mean + ci.half_width);

  // Two samples: df = 1, t = 12.706; sample sd of {10, 14} is 2*sqrt(2).
  const MeanCi two = mean_confidence_interval({10.0, 14.0});
  EXPECT_DOUBLE_EQ(two.mean, 12.0);
  EXPECT_NEAR(two.half_width, 12.706 * 2.0 * std::sqrt(2.0) / std::sqrt(2.0), 1e-9);
}

TEST(MeanCiTest, ConfidenceLevelsOrderAndValidate) {
  const std::vector<double> data = {3.0, 5.0, 4.0, 6.0, 2.0};
  const MeanCi c90 = mean_confidence_interval(data, 0.90);
  const MeanCi c95 = mean_confidence_interval(data, 0.95);
  const MeanCi c99 = mean_confidence_interval(data, 0.99);
  EXPECT_LT(c90.half_width, c95.half_width);
  EXPECT_LT(c95.half_width, c99.half_width);
  EXPECT_DOUBLE_EQ(c90.mean, c95.mean);
  EXPECT_THROW(mean_confidence_interval(data, 0.50), std::invalid_argument);
  EXPECT_THROW(mean_confidence_interval({}, 0.95), std::invalid_argument);
}

TEST(MeanCiTest, SingleReplicationHasZeroWidth) {
  const MeanCi one = mean_confidence_interval({7.5});
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.half_width, 0.0);
  EXPECT_EQ(one.n, 1u);
  // An unsupported confidence is rejected even when n == 1.
  EXPECT_THROW(mean_confidence_interval({7.5}, 0.42), std::invalid_argument);
}

TEST(MeanCiTest, LargeSampleUsesNormalApproximation) {
  std::vector<double> data;
  for (int i = 0; i < 64; ++i) data.push_back(static_cast<double>(i % 8));
  const MeanCi ci = mean_confidence_interval(data);
  double mean = 0.0;
  for (double v : data) mean += v;
  mean /= 64.0;
  double ss = 0.0;
  for (double v : data) ss += (v - mean) * (v - mean);
  const double se = std::sqrt(ss / 63.0 / 64.0);
  EXPECT_NEAR(ci.half_width, 1.960 * se, 1e-12);
}

// Same-geometry merge must equal single-pass accumulation exactly — the
// sharded runner folds per-user histograms and relies on bin counts being
// integer-valued doubles (exact addition, any fold order).
TEST(HistogramTest, MergeEqualsSinglePassAccumulation) {
  util::RngStream rng(9, "hist-merge");
  Histogram whole(0.0, 10.0, 16);
  Histogram part_a(0.0, 10.0, 16);
  Histogram part_b(0.0, 10.0, 16);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(-1.0, 12.0);  // exercises edge clamping too
    whole.add(v);
    (i % 2 == 0 ? part_a : part_b).add(v);
  }
  part_a.merge(part_b);
  EXPECT_EQ(part_a.counts(), whole.counts());
  EXPECT_EQ(part_a.total(), whole.total());
}

TEST(HistogramTest, MergeRejectsMismatchedGeometry) {
  Histogram base(0.0, 10.0, 16);
  EXPECT_THROW(base.merge(Histogram(0.0, 10.0, 8)), std::invalid_argument);
  EXPECT_THROW(base.merge(Histogram(0.0, 20.0, 16)), std::invalid_argument);
  EXPECT_THROW(base.merge(Histogram(1.0, 10.0, 16)), std::invalid_argument);
}

TEST(Smoothing, MovingAveragePreservesConstantSignal) {
  const std::vector<double> flat(10, 3.0);
  const auto out = moving_average(flat, 3);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Smoothing, MovingAverageReducesVariance) {
  util::RngStream rng(3, "smooth");
  std::vector<double> noisy;
  for (int i = 0; i < 200; ++i) noisy.push_back(rng.normal(0.0, 1.0));
  const auto smooth = moving_average(noisy, 9);
  RunningSummary raw_summary, smooth_summary;
  for (double v : noisy) raw_summary.add(v);
  for (double v : smooth) smooth_summary.add(v);
  EXPECT_LT(smooth_summary.variance(), raw_summary.variance() * 0.5);
}

TEST(Smoothing, GaussianKernelMassConserving) {
  std::vector<double> spike(21, 0.0);
  spike[10] = 100.0;
  const auto out = gaussian_smooth(spike, 2.0);
  double mass = 0.0;
  for (double v : out) mass += v;
  EXPECT_NEAR(mass, 100.0, 0.5);
  EXPECT_LT(out[10], 100.0);
  EXPECT_GT(out[8], 0.0);
}

TEST(Smoothing, HistogramSmoothingKeepsTotalCount) {
  Histogram h(0.0, 10.0, 10);
  util::RngStream rng(4, "smooth-h");
  for (int i = 0; i < 1000; ++i) h.add(rng.exponential(2.0));
  for (const SmoothingKind kind : {SmoothingKind::moving_average, SmoothingKind::gaussian}) {
    const Histogram s = smooth_histogram(h, kind, 3.0);
    double before = 0.0, after = 0.0;
    for (double c : h.counts()) before += c;
    for (double c : s.counts()) after += c;
    EXPECT_NEAR(before, after, 1e-6);
  }
}

TEST(Smoothing, RejectsBadParameters) {
  EXPECT_THROW(moving_average({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(gaussian_smooth({1.0}, 0.0), std::invalid_argument);
}

TEST(Smoothing, MovingAverageRejectsEvenWindows) {
  // An even window used to be bumped to the next odd size silently, so the
  // caller's "window" lied about the kernel actually applied.
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(moving_average(values, 2), std::invalid_argument);
  EXPECT_THROW(moving_average(values, 4), std::invalid_argument);
  EXPECT_NO_THROW(moving_average(values, 1));
  EXPECT_NO_THROW(moving_average(values, 3));
}

TEST(Smoothing, HistogramRejectsFractionalOrEvenMovingAverageWindow) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  // 3.7 used to be truncated to a 3-bin window silently.
  EXPECT_THROW(smooth_histogram(h, SmoothingKind::moving_average, 3.7), std::invalid_argument);
  EXPECT_THROW(smooth_histogram(h, SmoothingKind::moving_average, 4.0), std::invalid_argument);
  EXPECT_THROW(smooth_histogram(h, SmoothingKind::moving_average, 0.5), std::invalid_argument);
  // Fractional bandwidths are the *intended* gaussian contract.
  EXPECT_NO_THROW(smooth_histogram(h, SmoothingKind::gaussian, 0.75));
}

TEST(Smoothing, TotalMassPreservedWithMassConcentratedAtHistogramEdges) {
  // Edge regression for both smoothing kinds: a shrunken / renormalised edge
  // kernel plus the final renormalisation must keep the total count exact
  // even when every observation sits in the first or last bin.
  for (const bool at_high_edge : {false, true}) {
    Histogram h(0.0, 10.0, 12);
    for (int i = 0; i < 500; ++i) h.add(at_high_edge ? 9.99 : 0.0);
    h.add(at_high_edge ? 0.0 : 9.99);  // a token count in the opposite bin
    for (const SmoothingKind kind : {SmoothingKind::moving_average, SmoothingKind::gaussian}) {
      const Histogram s = smooth_histogram(h, kind, kind == SmoothingKind::gaussian ? 1.5 : 5.0);
      double before = 0.0, after = 0.0;
      for (double c : h.counts()) before += c;
      for (double c : s.counts()) after += c;
      EXPECT_NEAR(before, after, 1e-9);
      EXPECT_EQ(s.bin_count(), h.bin_count());
    }
  }
}

TEST(KsTest, AcceptsMatchingDistribution) {
  util::RngStream rng(5, "ks");
  dist::ExponentialDistribution d(100.0);
  std::vector<double> data;
  for (int i = 0; i < 2000; ++i) data.push_back(d.sample(rng));
  const TestResult r = ks_test(data, d);
  EXPECT_LT(r.statistic, 0.05);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(KsTest, RejectsWrongDistribution) {
  util::RngStream rng(5, "ks2");
  dist::ExponentialDistribution actual(100.0);
  dist::ExponentialDistribution claimed(200.0);
  std::vector<double> data;
  for (int i = 0; i < 2000; ++i) data.push_back(actual.sample(rng));
  const TestResult r = ks_test(data, claimed);
  EXPECT_GT(r.statistic, 0.1);
  EXPECT_LT(r.p_value, 0.001);
}

TEST(KsTest, TwoSampleSameSourceAccepted) {
  util::RngStream rng(6, "ks3");
  std::vector<double> a, b;
  for (int i = 0; i < 1500; ++i) a.push_back(rng.gamma(2.0, 5.0));
  for (int i = 0; i < 1500; ++i) b.push_back(rng.gamma(2.0, 5.0));
  const TestResult r = ks_test_two_sample(a, b);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(KsTest, TwoSampleDifferentSourcesRejected) {
  util::RngStream rng(6, "ks4");
  std::vector<double> a, b;
  for (int i = 0; i < 1500; ++i) a.push_back(rng.gamma(2.0, 5.0));
  for (int i = 0; i < 1500; ++i) b.push_back(rng.gamma(2.0, 9.0));
  const TestResult r = ks_test_two_sample(a, b);
  EXPECT_LT(r.p_value, 0.001);
}

TEST(KolmogorovQ, KnownBehaviour) {
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_GT(kolmogorov_q(0.5), kolmogorov_q(1.0));
  EXPECT_LT(kolmogorov_q(2.0), 0.001);
}

TEST(ChiSquare, AcceptsMatchingCounts) {
  const std::vector<double> expected = {100, 100, 100, 100};
  const std::vector<double> observed = {105, 95, 102, 98};
  const TestResult r = chi_square_test(observed, expected);
  EXPECT_GT(r.p_value, 0.5);
}

TEST(ChiSquare, RejectsBadCounts) {
  const std::vector<double> expected = {100, 100, 100, 100};
  const std::vector<double> observed = {160, 40, 150, 50};
  const TestResult r = chi_square_test(observed, expected);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(ChiSquare, PoolsSparseBins) {
  // Bins with tiny expectations must be pooled, not blow up the statistic.
  const std::vector<double> expected = {3.0, 3.0, 200.0, 3.0, 3.0};
  const std::vector<double> observed = {4, 3, 199, 2, 4};
  const TestResult r = chi_square_test(observed, expected);
  EXPECT_GT(r.p_value, 0.05);
}

TEST(ChiSquare, AllSparseBinsCollapseToError) {
  // When everything pools into one bin there is no test to run.
  EXPECT_THROW(chi_square_test({1, 1}, {0.5, 0.5}), std::invalid_argument);
}

TEST(ChiSquare, RejectsMismatchedInput) {
  EXPECT_THROW(chi_square_test({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(chi_square_test({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace wlgen::stats
