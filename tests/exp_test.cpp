// Unit tests for src/exp: experiment registry, expectation-check verdicts,
// ExperimentResult JSON round-trip, artifact writing (directory creation +
// slugified names), determinism of a real registered experiment, and
// agreement between the front ends that run one FSC + USIM universe.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/log_sink.h"
#include "exp/artifacts.h"
#include "exp/expectation.h"
#include "exp/harness.h"
#include "exp/registry.h"
#include "exp/result.h"
#include "exp/workload.h"
#include "experiments.h"
#include "runner/contended_runner.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "util/json.h"
#include "util/strings.h"

namespace wlgen::exp {
namespace {

Experiment tiny_experiment(const std::string& id, double final_value) {
  Experiment e;
  e.id = id;
  e.title = "tiny";
  e.run = [final_value](const RunContext&) {
    ExperimentResult r;
    r.add_series("curve", {1.0, 2.0, 3.0}, {1.0, 2.0, final_value});
    r.set_scalar("final", final_value);
    return r;
  };
  return e;
}

TEST(Registry, LookupFindsRegisteredExperimentsAndRejectsDuplicates) {
  Registry registry;
  registry.add(tiny_experiment("a", 3.0));
  registry.add(tiny_experiment("b", 4.0));
  ASSERT_NE(registry.find("a"), nullptr);
  EXPECT_EQ(registry.find("a")->id, "a");
  EXPECT_EQ(registry.find("missing"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_THROW(registry.add(tiny_experiment("a", 5.0)), std::invalid_argument);
  Experiment no_run;
  no_run.id = "no_run";
  EXPECT_THROW(registry.add(std::move(no_run)), std::invalid_argument);
}

TEST(Registry, AllTwentyFivePaperExperimentsRegister) {
  Registry registry;
  bench::register_all_experiments(registry);
  // 23 paper artefacts + the 2 open-system traffic checks (bench/experiments.h).
  EXPECT_EQ(registry.size(), 25u);
  for (const char* id : {"fig5_1", "fig5_6", "fig5_12", "table5_1", "table5_4",
                         "ablation_cache", "baseline_bench", "compare_fs",
                         "offered_load", "slowdown_recovery"}) {
    EXPECT_NE(registry.find(id), nullptr) << id;
  }
  EXPECT_EQ(registry.find("fig5_6")->artifact_slug(), "figure_5_6");
  EXPECT_EQ(registry.find("ablation_cache")->artifact_slug(), "ablation_cache");
}

TEST(Expectation, MonotonicUpPassesOnRisingSeriesAndFailsOnFallingOne) {
  ExperimentResult rising;
  rising.add_series("curve", {1, 2, 3, 4}, {1.0, 2.0, 3.0, 4.0});
  const CheckOutcome good = check_expectation(
      expect_monotonic_up("curve", 0.0, Verdict::fail, "rises"), rising, 1.0);
  EXPECT_EQ(good.verdict, Verdict::pass);

  ExperimentResult falling;
  falling.add_series("curve", {1, 2, 3, 4}, {4.0, 3.0, 5.0, 1.0});
  const CheckOutcome bad = check_expectation(
      expect_monotonic_up("curve", 0.0, Verdict::fail, "rises"), falling, 1.0);
  EXPECT_EQ(bad.verdict, Verdict::fail);
}

TEST(Expectation, MonotonicToleranceForgivesSmallCounterSteps) {
  ExperimentResult noisy;
  // One 0.1 dip against a range of 3.0: within a 0.05 (= 0.15) slack.
  noisy.add_series("curve", {1, 2, 3, 4}, {1.0, 2.0, 1.9, 4.0});
  EXPECT_EQ(check_expectation(expect_monotonic_up("curve", 0.05, Verdict::fail, ""), noisy,
                              1.0)
                .verdict,
            Verdict::pass);
  EXPECT_EQ(check_expectation(expect_monotonic_up("curve", 0.0, Verdict::fail, ""), noisy,
                              1.0)
                .verdict,
            Verdict::fail);
}

TEST(Expectation, RangeChecksGradeScalarsAndFinalValues) {
  ExperimentResult r;
  r.add_series("curve", {1, 2, 3}, {1.0, 2.0, 12.0});
  r.set_scalar("growth", 12.0);
  EXPECT_EQ(check_expectation(expect_final_in_range("curve", 10, 15, Verdict::warn, ""), r,
                              1.0)
                .verdict,
            Verdict::pass);
  EXPECT_EQ(check_expectation(expect_final_in_range("curve", 13, 15, Verdict::warn, ""), r,
                              1.0)
                .verdict,
            Verdict::warn);
  EXPECT_EQ(check_expectation(expect_scalar_in_range("growth", 0, 5, Verdict::fail, ""), r,
                              1.0)
                .verdict,
            Verdict::fail);
  // A missing target is always a hard fail, even for warn-severity checks.
  EXPECT_EQ(check_expectation(expect_scalar_in_range("absent", 0, 5, Verdict::warn, ""), r,
                              1.0)
                .verdict,
            Verdict::fail);
}

TEST(Expectation, ReducedProfileDemotesRangeFailuresButNotShapeFailures) {
  ExperimentResult r;
  r.add_series("curve", {1, 2, 3}, {3.0, 2.0, 1.0});
  r.set_scalar("level", 100.0);
  // Absolute level out of band: fail at paper scale, warn at reduced scale.
  const Expectation range = expect_scalar_in_range("level", 0, 10, Verdict::fail, "");
  EXPECT_EQ(check_expectation(range, r, 1.0).verdict, Verdict::fail);
  EXPECT_EQ(check_expectation(range, r, 0.25).verdict, Verdict::warn);
  // Shape invariants stay hard regardless of profile.
  const Expectation shape = expect_monotonic_up("curve", 0.0, Verdict::fail, "");
  EXPECT_EQ(check_expectation(shape, r, 0.25).verdict, Verdict::fail);
}

TEST(Expectation, GradeReturnsWorstVerdict) {
  ExperimentResult r;
  r.add_series("curve", {1, 2, 3}, {1.0, 2.0, 3.0});
  r.set_scalar("level", 2.0);
  std::vector<CheckOutcome> outcomes;
  const Verdict verdict = grade(
      {
          expect_monotonic_up("curve", 0.0, Verdict::fail, ""),
          expect_scalar_in_range("level", 5, 6, Verdict::warn, ""),
      },
      r, 1.0, &outcomes);
  EXPECT_EQ(verdict, Verdict::warn);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].verdict, Verdict::pass);
  EXPECT_EQ(outcomes[1].verdict, Verdict::warn);
}

TEST(ExperimentResultJson, RoundTripPreservesSeriesScalarsAndNotes) {
  ExperimentResult r;
  auto& s = r.add_series("response", {1.0, 2.0, 3.0}, {1.5, 2.25, 6.875});
  s.color = "#d62728";
  r.add_series("empty", {}, {});
  r.set_scalar("growth_ratio", 3.51);
  r.set_scalar("final", 6.875);
  r.x_label = "users";
  r.y_label = "us per \"byte\"";  // exercises string escaping
  r.notes.push_back("line one\nline two");

  const std::string text = r.to_json().dump();
  const ExperimentResult back = ExperimentResult::from_json(util::parse_json(text));
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_EQ(back.series[0].name, "response");
  EXPECT_EQ(back.series[0].color, "#d62728");
  EXPECT_EQ(back.series[0].xs, r.series[0].xs);
  EXPECT_EQ(back.series[0].ys, r.series[0].ys);
  EXPECT_EQ(back.scalars, r.scalars);
  EXPECT_EQ(back.x_label, "users");
  EXPECT_EQ(back.y_label, r.y_label);
  EXPECT_EQ(back.notes, r.notes);
  // Serialization is canonical: a second trip emits identical bytes.
  EXPECT_EQ(back.to_json().dump(), text);
}

TEST(ExperimentResultJson, NonFiniteValuesRoundTripAsNull) {
  ExperimentResult r;
  r.add_series("curve", {1.0, 2.0}, {std::numeric_limits<double>::quiet_NaN(), 5.0});
  r.set_scalar("ratio", std::numeric_limits<double>::infinity());
  const std::string text = r.to_json().dump();
  EXPECT_NE(text.find("null"), std::string::npos);
  const ExperimentResult back = ExperimentResult::from_json(util::parse_json(text));
  EXPECT_TRUE(std::isnan(back.series[0].ys[0]));
  EXPECT_EQ(back.series[0].ys[1], 5.0);
  ASSERT_EQ(back.scalars.size(), 1u);
  EXPECT_TRUE(std::isnan(back.scalars[0].second));  // Inf clips to null -> NaN
  EXPECT_EQ(back.to_json().dump(), text);
}

TEST(Artifacts, WriteCreatesMissingDirectoryAndSlugifiesNames) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "wlgen_exp_test_artifacts";
  std::filesystem::remove_all(base);
  const std::string dir = (base / "nested" / "out").string();
  // The old bench/common helper silently returned "" here because the
  // directory did not exist; the exp:: writer must create it.
  const std::string path = write_artifact(dir, "Figure 5.6.svg", "<svg/>");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(std::filesystem::path(path).filename().string(), "figure_5_6.svg");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "<svg/>");
  std::filesystem::remove_all(base);
}

TEST(Harness, RunsSelectedExperimentsAndCountsVerdicts) {
  Registry registry;
  Experiment good = tiny_experiment("good", 3.0);
  good.expectations = {expect_monotonic_up("curve", 0.0, Verdict::fail, "")};
  Experiment bad = tiny_experiment("bad", 0.5);
  bad.expectations = {expect_monotonic_up("curve", 0.0, Verdict::fail, "")};
  Experiment throws = tiny_experiment("throws", 1.0);
  throws.run = [](const RunContext&) -> ExperimentResult {
    throw std::runtime_error("boom");
  };
  registry.add(std::move(good));
  registry.add(std::move(bad));
  registry.add(std::move(throws));

  HarnessOptions options;
  options.write_artifacts = false;
  const HarnessSummary summary = run_experiments(registry, options);
  ASSERT_EQ(summary.reports.size(), 3u);
  EXPECT_EQ(summary.passed, 1u);
  EXPECT_EQ(summary.failed, 2u);
  EXPECT_EQ(summary.reports[2].error, "boom");
  EXPECT_TRUE(summary.any_fail());

  HarnessOptions only;
  only.write_artifacts = false;
  only.only = {"good"};
  EXPECT_EQ(run_experiments(registry, only).reports.size(), 1u);
  only.only = {"nonexistent"};
  EXPECT_THROW(run_experiments(registry, only), std::invalid_argument);
}

TEST(Harness, ExperimentsMdListsEveryReport) {
  Registry registry;
  registry.add(tiny_experiment("alpha", 3.0));
  HarnessOptions options;
  options.write_artifacts = false;
  const HarnessSummary summary = run_experiments(registry, options);
  const std::string md = render_experiments_md(summary, options);
  EXPECT_NE(md.find("| alpha |"), std::string::npos);
  EXPECT_NE(md.find("## alpha"), std::string::npos);
  EXPECT_NE(md.find("1 pass"), std::string::npos);
}

TEST(Determinism, RegisteredExperimentProducesIdenticalJsonAcrossRuns) {
  // table5_4 runs three real FSC+USIM workloads; at a reduced profile it is
  // fast and must be a pure function of (seed, scale).
  const Experiment experiment = bench::make_table5_4();
  RunContext ctx;
  ctx.seed = 1991;
  ctx.scale = 0.1;
  const std::string first = experiment.run(ctx).to_json().dump();
  const std::string second = experiment.run(ctx).to_json().dump();
  EXPECT_EQ(first, second);
}

TEST(Harness, ReplicationsAndContendedThreadsReachTheRunContext) {
  Registry registry;
  Experiment probe = tiny_experiment("probe", 3.0);
  probe.run = [](const RunContext& ctx) {
    ExperimentResult result;
    result.set_scalar("replications", static_cast<double>(ctx.replications));
    result.set_scalar("contended_threads", static_cast<double>(ctx.contended_threads));
    return result;
  };
  registry.add(std::move(probe));

  HarnessOptions options;
  options.write_artifacts = false;
  options.replications = 5;
  options.threads = 2;
  const HarnessSummary summary = run_experiments(registry, options);
  ASSERT_EQ(summary.reports.size(), 1u);
  EXPECT_DOUBLE_EQ(*summary.reports[0].result.find_scalar("replications"), 5.0);
  EXPECT_DOUBLE_EQ(*summary.reports[0].result.find_scalar("contended_threads"), 2.0);

  options.replications = 0;
  EXPECT_THROW(run_experiments(registry, options), std::invalid_argument);
}

TEST(Determinism, ContendedResponseExperimentIsThreadInvariant) {
  // A Figures 5.6-5.11 registration at a tiny profile: the contended sweep
  // underneath must make the emitted JSON independent of its worker-thread
  // count (the ContendedRunner merge contract, observed end to end).
  const Experiment experiment = bench::make_fig5_7();
  RunContext serial;
  serial.scale = 0.05;
  serial.replications = 2;
  serial.contended_threads = 1;
  RunContext parallel = serial;
  parallel.contended_threads = 8;
  EXPECT_EQ(experiment.run(serial).to_json().dump(),
            experiment.run(parallel).to_json().dump());
}

TEST(FrontEnds, WorkloadSharedRunAndContendedReplicationAgree) {
  // run_shared (under run_workload, the classic `wlgen run` and replay
  // mode), a one-replication contended point and a one-user sharded run are
  // the three drivers over runner::run_universe; built from one
  // runner::WorkloadConfig they must produce the same log and the same
  // statistics, bit for bit.
  for (const double heavy : {1.0, 0.5}) {
    SCOPED_TRACE(heavy);
    runner::WorkloadConfig workload;
    workload.seed = 77;
    workload.usim.sessions_per_user = 6;
    workload.model_factory = runner::model_factory_by_name("local");
    workload.population = core::mixed_population(heavy);

    const runner::SharedRun shared = runner::run_shared(workload, 3);
    ASSERT_GT(shared.ops, 0u);
    WorkloadConfig config{workload};
    config.num_users = 3;
    const WorkloadOutput output = run_workload(config);
    EXPECT_EQ(output.total_ops, shared.ops);
    EXPECT_EQ(output.log.serialize(), shared.log.serialize());
    // The scenario layer compiles a spec to the same workload.
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(
        "[scenario]\nmode = sharded\nseed = 77\n[workload]\nusers = 3\nsessions = 6\n"
        "heavy_fraction = " + std::to_string(heavy) + "\n[model]\nname = local\n");
    EXPECT_EQ(runner::run_shared(scenario::workload_config(spec, spec.models.front()), 3)
                  .log.serialize(),
              shared.log.serialize());

    runner::ContendedConfig contended{workload};
    contended.user_points = {3};
    const runner::ContendedResult result = runner::ContendedRunner(contended).run();
    ASSERT_EQ(result.points.size(), 1u);
    const runner::RunnerStats& got = result.points.front().stats;

    runner::WorkloadConfig replicated = workload;
    replicated.seed = runner::replication_seed(77, 0);
    const runner::SharedRun replication = runner::run_shared(replicated, 3);
    runner::RunnerStats want;
    for (const auto& record : replication.log.records()) want.add(record);
    EXPECT_EQ(got.ops(), want.ops());
    EXPECT_EQ(got.bytes_moved(), want.bytes_moved());
    EXPECT_EQ(got.response_us().mean(), want.response_us().mean());
    EXPECT_EQ(got.response_us().variance(), want.response_us().variance());
    EXPECT_EQ(got.response_us().min(), want.response_us().min());
    EXPECT_EQ(got.response_us().max(), want.response_us().max());
    EXPECT_EQ(got.access_size().mean(), want.access_size().mean());
    EXPECT_EQ(got.access_size().variance(), want.access_size().variance());
    EXPECT_EQ(got.response_per_byte_us(), want.response_per_byte_us());
    EXPECT_EQ(got.response_histogram().counts(), want.response_histogram().counts());
    // run_shared's own fold is the same log-order fold.
    EXPECT_EQ(replication.stats.response_us().mean(), want.response_us().mean());
    EXPECT_EQ(replication.stats.response_per_byte_us(), want.response_per_byte_us());

    // One user on one shard is one universe: user 0 at the root seed.
    runner::RunnerConfig sharded{workload};
    sharded.num_users = 1;
    sharded.shards = 1;
    const runner::RunnerResult one_user = runner::ShardedRunner(sharded).run();
    const runner::SharedRun single = runner::run_shared(workload, 1);
    ASSERT_FALSE(single.log.empty());
    EXPECT_EQ(core::materialize(*core::open_spilled_log(one_user.log_runs)).serialize(),
              single.log.serialize());
  }
}

}  // namespace
}  // namespace wlgen::exp
