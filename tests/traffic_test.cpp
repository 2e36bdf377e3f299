// Tests for the open-system traffic engine (src/traffic/):
//
// * statistical properties of the arrival processes — KS test of Poisson
//   interarrivals against the exact exponential CDF, index-of-dispersion
//   over-dispersion of the MMPP, KS of heavy-tailed gaps against the Pareto
//   CDF, and the intensity-profile integral predicting realized counts;
// * validation negatives for ArrivalConfig / IntensityProfile / FaultPlan;
// * churn membership purity and session postponement;
// * fault behaviour end to end on exp::run_workload (slowdown scales the
//   level, a factor-1 window is byte-neutral);
// * the determinism pins: open-loop + fault scenario digests byte-identical
//   across shards {1,2,3} x threads {1,8} on both runner modes, and across
//   a checkpoint/resume cycle with a mid-run fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <vector>

#include "dist/basic.h"
#include "exp/workload.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "stats/tests.h"
#include "traffic/arrivals.h"
#include "traffic/faults.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace wlgen::traffic {
namespace {

// --- arrival process statistics ---------------------------------------------

std::vector<double> gaps_of(const std::vector<double>& arrivals) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i] - arrivals[i - 1]);
  }
  return gaps;
}

TEST(Arrivals, PoissonInterarrivalsPassKsAgainstExponential) {
  ArrivalConfig config;
  config.kind = ArrivalKind::poisson;
  config.rate_per_sec = 2.0;
  config.sessions = 2000;
  const std::vector<double> arrivals = generate_arrivals(config, 1991);
  ASSERT_EQ(arrivals.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));

  // Base rate 2/s => exponential gaps with mean 0.5e6 us.
  const dist::ExponentialDistribution reference(0.5e6);
  const stats::TestResult ks = stats::ks_test(gaps_of(arrivals), reference);
  EXPECT_GT(ks.p_value, 0.01) << "KS D = " << ks.statistic;
}

TEST(Arrivals, HeavyTailedInterarrivalsPassKsAgainstPareto) {
  ArrivalConfig config;
  config.kind = ArrivalKind::heavy;
  config.rate_per_sec = 1.0;
  config.pareto_alpha = 1.5;
  config.sessions = 2000;
  const std::vector<double> arrivals = generate_arrivals(config, 7);

  // Pareto scale chosen so the mean gap matches 1 / rate (arrivals.cpp).
  const double mean_us = 1e6;
  const double xm = mean_us * (config.pareto_alpha - 1.0) / config.pareto_alpha;
  const ParetoDistribution reference(config.pareto_alpha, xm);
  const stats::TestResult ks = stats::ks_test(gaps_of(arrivals), reference);
  EXPECT_GT(ks.p_value, 0.01) << "KS D = " << ks.statistic;
}

/// Index of dispersion of per-window arrival counts: Var[N] / E[N].
double index_of_dispersion(const std::vector<double>& arrivals, double window_us) {
  const std::size_t windows =
      static_cast<std::size_t>(arrivals.back() / window_us);
  std::vector<double> counts(windows, 0.0);
  for (const double t : arrivals) {
    const auto w = static_cast<std::size_t>(t / window_us);
    if (w < windows) counts[w] += 1.0;
  }
  const double mean =
      std::accumulate(counts.begin(), counts.end(), 0.0) / static_cast<double>(windows);
  double var = 0.0;
  for (const double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(windows);
  return mean > 0.0 ? var / mean : 0.0;
}

TEST(Arrivals, MmppIsOverdispersedRelativeToPoisson) {
  ArrivalConfig poisson;
  poisson.kind = ArrivalKind::poisson;
  poisson.rate_per_sec = 1.0;
  poisson.sessions = 3000;

  ArrivalConfig mmpp = poisson;
  mmpp.kind = ArrivalKind::mmpp;  // defaults: burst_ratio 8, 2s burst / 8s idle

  const double window_us = 5e6;
  const double poisson_iod =
      index_of_dispersion(generate_arrivals(poisson, 1991), window_us);
  const double mmpp_iod = index_of_dispersion(generate_arrivals(mmpp, 1991), window_us);

  // A Poisson count process has IoD 1; the 2-state MMPP must sit well above.
  EXPECT_GT(poisson_iod, 0.6);
  EXPECT_LT(poisson_iod, 1.6);
  EXPECT_GT(mmpp_iod, 2.0);
  EXPECT_GT(mmpp_iod, 1.5 * poisson_iod);
}

TEST(Arrivals, ProfileIntegralPredictsRealizedCounts) {
  ArrivalConfig config;
  config.kind = ArrivalKind::poisson;
  config.rate_per_sec = 2.0;
  config.sessions = 1200;
  config.profile.points = {{0.0, 0.5}, {300e6, 2.0}};
  config.profile.flash_at_us = 60e6;
  config.profile.flash_duration_us = 30e6;
  config.profile.flash_magnitude = 3.0;
  config.validate();

  const std::vector<double> arrivals = generate_arrivals(config, 23);
  const auto count_in = [&](double t0, double t1) {
    return static_cast<double>(std::count_if(
        arrivals.begin(), arrivals.end(), [&](double t) { return t >= t0 && t < t1; }));
  };

  // Realized count over [0, 200s] within 5 sigma of the integrated rate.
  const double expected =
      config.rate_per_sec / 1e6 * config.profile.integral(0.0, 200e6);
  const double realized = count_in(0.0, 200e6);
  EXPECT_NEAR(realized, expected, 5.0 * std::sqrt(expected))
      << "expected " << expected << ", realized " << realized;

  // The flash-crowd window must be visibly hotter than an equal-width
  // window after it (multiplier 3x vs the diurnal ramp alone).
  EXPECT_GT(count_in(60e6, 90e6), 1.5 * count_in(120e6, 150e6));
}

TEST(IntensityProfile, IntegralMatchesRiemannSum) {
  IntensityProfile profile;
  profile.points = {{10e6, 0.25}, {40e6, 2.0}, {90e6, 1.0}};
  profile.flash_at_us = 30e6;
  profile.flash_duration_us = 25e6;
  profile.flash_magnitude = 4.0;
  profile.validate();

  const double t0 = 0.0, t1 = 120e6;
  const int steps = 200000;
  const double dt = (t1 - t0) / steps;
  double riemann = 0.0;
  for (int i = 0; i < steps; ++i) {
    riemann += profile.multiplier(t0 + (i + 0.5) * dt) * dt;
  }
  // The analytic integral is exact; the midpoint sum carries O(dt) error at
  // each kink (knots + flash edges), so the tolerance reflects the sum.
  EXPECT_NEAR(profile.integral(t0, t1), riemann, 2e-5 * riemann);
  // And the supremum really bounds the profile (the thinning contract).
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(profile.multiplier(t0 + i * (t1 - t0) / 1000.0), profile.peak() + 1e-12);
  }
}

TEST(Arrivals, GenerationIsAPureFunctionOfConfigAndSeed) {
  ArrivalConfig config;
  config.kind = ArrivalKind::mmpp;
  config.rate_per_sec = 0.5;
  config.sessions = 200;
  EXPECT_EQ(generate_arrivals(config, 42), generate_arrivals(config, 42));
  EXPECT_NE(generate_arrivals(config, 42), generate_arrivals(config, 43));

  // Dealing to users preserves the multiset and per-user order.
  const std::vector<double> all = generate_arrivals(config, 42);
  const auto dealt = assign_arrivals(config, 3, 42);
  ASSERT_EQ(dealt.size(), 3u);
  std::vector<double> merged;
  for (const auto& user : dealt) {
    EXPECT_TRUE(std::is_sorted(user.begin(), user.end()));
    merged.insert(merged.end(), user.begin(), user.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(Pareto, DistributionInterfaceIsConsistent) {
  const ParetoDistribution pareto(1.5, 2.0e5);
  EXPECT_DOUBLE_EQ(pareto.mean(), 1.5 * 2.0e5 / 0.5);
  EXPECT_DOUBLE_EQ(pareto.cdf(pareto.quantile(0.37)), 0.37);
  EXPECT_DOUBLE_EQ(pareto.cdf(1.0e5), 0.0);  // below the scale
  util::RngStream rng(9, "pareto");
  for (int i = 0; i < 100; ++i) EXPECT_GE(pareto.sample(rng), pareto.lower_bound());
}

// --- validation negatives ---------------------------------------------------

TEST(Validation, ArrivalConfigRejectsBadParameters) {
  ArrivalConfig config;
  config.rate_per_sec = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.rate_per_sec = 1.0;
  config.sessions = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sessions = 1;
  config.kind = ArrivalKind::heavy;
  config.pareto_alpha = 1.0;  // mean would not exist
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.kind = ArrivalKind::mmpp;
  config.pareto_alpha = 1.5;
  config.mean_burst_us = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Validation, IntensityProfileRejectsBadShapes) {
  IntensityProfile unsorted;
  unsorted.points = {{5e6, 1.0}, {5e6, 2.0}};
  EXPECT_THROW(unsorted.validate(), std::invalid_argument);

  IntensityProfile negative;
  negative.points = {{0.0, -0.5}};
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  IntensityProfile zero;
  zero.points = {{0.0, 0.0}, {10e6, 0.0}};
  EXPECT_THROW(zero.validate(), std::invalid_argument);

  IntensityProfile flash;
  flash.flash_magnitude = 0.0;
  EXPECT_THROW(flash.validate(), std::invalid_argument);
}

TEST(Validation, FaultPlanRejectsBadWindows) {
  FaultPlan inverted;
  inverted.slowdowns = {{10e6, 5e6, 2.0}};
  EXPECT_THROW(inverted.validate(), std::invalid_argument);

  FaultPlan overlapping;
  overlapping.slowdowns = {{0.0, 10e6, 2.0}, {5e6, 15e6, 2.0}};
  EXPECT_THROW(overlapping.validate(), std::invalid_argument);

  FaultPlan zero_factor;
  zero_factor.slowdowns = {{0.0, 1e6, 0.0}};
  EXPECT_THROW(zero_factor.validate(), std::invalid_argument);

  FaultPlan negative_flush;
  negative_flush.flush_times_us = {-1.0};
  EXPECT_THROW(negative_flush.validate(), std::invalid_argument);

  FaultPlan bad_churn;
  bad_churn.churns = {{0.0, 1e6, 1.5}};
  EXPECT_THROW(bad_churn.validate(), std::invalid_argument);

  // Disjoint, ordered windows are fine in any listed order.
  FaultPlan fine;
  fine.slowdowns = {{20e6, 30e6, 2.0}, {0.0, 10e6, 4.0}};
  EXPECT_NO_THROW(fine.validate());
}

// --- churn ------------------------------------------------------------------

TEST(Churn, MembershipIsPureAndMatchesTheFraction) {
  std::size_t out = 0;
  for (std::size_t user = 0; user < 1000; ++user) {
    const bool away = churned_out(1991, user, 0, 0.5);
    EXPECT_EQ(away, churned_out(1991, user, 0, 0.5));  // pure
    if (away) ++out;
  }
  EXPECT_NEAR(static_cast<double>(out), 500.0, 80.0);
  EXPECT_FALSE(churned_out(1991, 3, 0, 0.0));
  EXPECT_TRUE(churned_out(1991, 3, 0, 1.0));
}

TEST(Churn, AdjustedTimeSkipsCoveringWindows) {
  const std::vector<ChurnWindow> churns = {{10e6, 20e6, 1.0}, {20e6, 30e6, 1.0}};
  // Full churn: a start inside the first window cascades through the second.
  EXPECT_DOUBLE_EQ(churn_adjusted(churns, 1, 0, 15e6), 30e6);
  // Outside any window: untouched.
  EXPECT_DOUBLE_EQ(churn_adjusted(churns, 1, 0, 5e6), 5e6);
  EXPECT_DOUBLE_EQ(churn_adjusted(churns, 1, 0, 31e6), 31e6);
  // Zero fraction never postpones.
  EXPECT_DOUBLE_EQ(churn_adjusted({{0.0, 50e6, 0.0}}, 1, 0, 25e6), 25e6);
}

TEST(Churn, FullChurnWindowPostponesEveryOpenLoopSession) {
  exp::WorkloadConfig config;
  config.num_users = 2;
  config.seed = 5;
  ArrivalConfig arrivals;
  arrivals.rate_per_sec = 1.0;  // all 8 arrivals land in the first ~10s
  arrivals.sessions = 8;
  config.traffic.arrivals = arrivals;
  config.traffic.faults.churns = {{0.0, 1e9, 1.0}};
  const exp::WorkloadOutput out = exp::run_workload(config);
  ASSERT_FALSE(out.log.empty());
  for (const auto& record : out.log.records()) {
    EXPECT_GE(record.issue_time_us, 1e9);
  }
}

// --- faults end to end on the workload engine -------------------------------

TEST(Faults, SlowdownWindowScalesTheResponseLevel) {
  exp::WorkloadConfig baseline;
  baseline.num_users = 2;
  baseline.usim.sessions_per_user = 4;
  const double base = exp::run_workload(baseline).analysis.response_per_byte_us();
  ASSERT_GT(base, 0.0);

  exp::WorkloadConfig slowed = baseline;
  slowed.traffic.faults.slowdowns = {{0.0, 1e15, 10.0}};  // covers the whole run
  const double slow = exp::run_workload(slowed).analysis.response_per_byte_us();
  EXPECT_GT(slow, 5.0 * base);

  // A factor-1 window is a no-op and must not move a single bit.
  exp::WorkloadConfig neutral = baseline;
  neutral.traffic.faults.slowdowns = {{0.0, 1e15, 1.0}};
  EXPECT_EQ(exp::run_workload(neutral).log.serialize(), exp::run_workload(baseline).log.serialize());
}

TEST(Faults, CacheFlushCannotImproveTheRun) {
  exp::WorkloadConfig baseline;
  baseline.num_users = 2;
  baseline.usim.sessions_per_user = 4;
  const exp::WorkloadOutput before = exp::run_workload(baseline);

  exp::WorkloadConfig flushed = baseline;
  flushed.traffic.faults.flush_times_us = {before.simulated_us / 2.0};
  const exp::WorkloadOutput after = exp::run_workload(flushed);
  // Refilling cold caches costs time; the op timeline must differ and the
  // pooled level must not get faster.
  EXPECT_NE(after.log.serialize(), before.log.serialize());
  EXPECT_GE(after.analysis.response_per_byte_us(), before.analysis.response_per_byte_us());
}

TEST(OpenLoop, SessionBudgetIsTheArrivalCount) {
  exp::WorkloadConfig config;
  config.num_users = 3;
  config.usim.sessions_per_user = 50;  // must be ignored under open-loop arrivals
  ArrivalConfig arrivals;
  arrivals.rate_per_sec = 0.5;
  arrivals.sessions = 12;
  config.traffic.arrivals = arrivals;
  const exp::WorkloadOutput out = exp::run_workload(config);
  EXPECT_EQ(out.analysis.sessions().size(), 12u);
}

// --- scenario determinism pins ----------------------------------------------

std::string digest_of(const std::string& text, std::size_t threads) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(text);
  scenario::RunOptions options;
  options.threads = threads;
  return scenario::run_scenario(spec, options).stats_digest;
}

std::string sharded_traffic_text(std::size_t shards, const std::string& log_section = "",
                                 const std::string& sharded_extra = "") {
  return "[scenario]\nmode = sharded\nname = traffic-pin\nseed = 11\n"
         "[workload]\nusers = 6\nsessions = 3\n"
         "[sharded]\nshards = " + std::to_string(shards) + "\n" + sharded_extra + log_section +
         "[arrivals]\nprocess = mmpp\nrate = 0.5\nsessions = 24\n"
         "diurnal = 0:0.5, 60:2\n"
         "flash_at = 20\nflash_duration = 10\nflash_magnitude = 3\n"
         "[faults]\nslowdown = 5:15:4\nflush = 10, 30\nchurn = 0:25:0.5\n"
         "[model]\nname = nfs\n";
}

TEST(TrafficDigest, ShardedIsShardAndThreadCountInvariant) {
  const std::string reference = digest_of(sharded_traffic_text(1), 1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t shards : {1u, 2u, 3u}) {
    for (const std::size_t threads : {1u, 8u}) {
      EXPECT_EQ(digest_of(sharded_traffic_text(shards), threads), reference)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(TrafficDigest, ContendedIsThreadCountInvariant) {
  const std::string text =
      "[scenario]\nmode = contended\nname = traffic-pin-contended\nseed = 11\n"
      "[workload]\nusers = 2\nsessions = 3\n"
      "[contended]\nreplications = 2\n"
      "[arrivals]\nprocess = poisson\nrate = 0.05\nsessions = 10\n"
      "[faults]\nslowdown = 20:60:5\nflush = 40\n"
      "[model]\nname = nfs\n";
  const std::string one = digest_of(text, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, digest_of(text, 8));
}

TEST(TrafficDigest, MidRunFaultSurvivesCheckpointResume) {
  const auto spool = std::filesystem::path(::testing::TempDir()) / "wlgen_traffic_resume";
  std::filesystem::remove_all(spool);
  const std::string log_section =
      "[log]\nspill = true\ncheckpoint = true\nspool_dir = " + spool.string() + "\n";
  const std::string first_text = sharded_traffic_text(2, log_section);
  const std::string resumed_text = sharded_traffic_text(2, log_section, "resume = true\n");

  const std::string first = digest_of(first_text, 2);
  // Every shard resumes from its checkpoint; the mid-run slowdown, flushes
  // and churn must replay byte-identically.
  EXPECT_EQ(digest_of(resumed_text, 2), first);
  std::filesystem::remove_all(spool);
}

// --- scenario parsing of the traffic sections -------------------------------

TEST(TrafficScenario, ParsesArrivalsAndFaultsWithSecondConversion) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(
      "[scenario]\nmode = sharded\nname = t\n"
      "[workload]\nusers = 4\nsessions = 2\n"
      "[arrivals]\nprocess = heavy\nrate = 0.25\npareto_alpha = 1.8\n"
      "diurnal = 0:0.5, 120:1.5\nflash_at = 30\nflash_duration = 15\nflash_magnitude = 2\n"
      "[faults]\nslowdown = 10:20:3.5\nflush = 5, 25\nchurn = 0:30:0.25\n"
      "[model]\nname = nfs\n");
  ASSERT_TRUE(spec.traffic.arrivals.has_value());
  const ArrivalConfig& arrivals = *spec.traffic.arrivals;
  EXPECT_EQ(arrivals.kind, ArrivalKind::heavy);
  EXPECT_DOUBLE_EQ(arrivals.rate_per_sec, 0.25);
  EXPECT_DOUBLE_EQ(arrivals.pareto_alpha, 1.8);
  ASSERT_EQ(arrivals.profile.points.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals.profile.points[1].t_us, 120e6);
  EXPECT_DOUBLE_EQ(arrivals.profile.flash_at_us, 30e6);
  EXPECT_DOUBLE_EQ(arrivals.profile.flash_duration_us, 15e6);
  ASSERT_EQ(spec.traffic.faults.slowdowns.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.traffic.faults.slowdowns[0].begin_us, 10e6);
  EXPECT_DOUBLE_EQ(spec.traffic.faults.slowdowns[0].end_us, 20e6);
  EXPECT_DOUBLE_EQ(spec.traffic.faults.slowdowns[0].factor, 3.5);
  EXPECT_EQ(spec.traffic.faults.flush_times_us, (std::vector<double>{5e6, 25e6}));
  ASSERT_EQ(spec.traffic.faults.churns.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.traffic.faults.churns[0].fraction, 0.25);
  // The spec summary and the fingerprint tag both reflect the sections.
  EXPECT_NE(spec.summary().find("arrivals"), std::string::npos);
  EXPECT_FALSE(spec.traffic.tag().empty());
}

TEST(TrafficScenario, DefaultSessionBudgetIsTheClosedLoopVolume) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(
      "[scenario]\nmode = sharded\nname = t\n"
      "[workload]\nusers = 4\nsessions = 5\n"
      "[arrivals]\nrate = 1\n"
      "[model]\nname = nfs\n");
  ASSERT_TRUE(spec.traffic.arrivals.has_value());
  EXPECT_EQ(spec.traffic.arrivals->sessions, 20u);  // 4 users x 5 sessions
}

}  // namespace
}  // namespace wlgen::traffic
