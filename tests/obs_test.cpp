// Tests for the observability layer (src/obs/): the metrics registry's
// per-kind merge rules and exact-text/JSON serialization, the bounded trace
// ring, the thread-local stage-trace slot, and — the headline contract —
// that the merged obs counters are bit-identical for every shard/thread
// count in all three runner modes, and that turning tracing on never
// changes a digest.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/log_sink.h"
#include "core/presets.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runner/contended_runner.h"
#include "runner/pool.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/version.h"

namespace wlgen::obs {
namespace {

// --- registry ---------------------------------------------------------------

TEST(Registry, MergeRulesPerKind) {
  Registry a, b;
  a.add_counter("events", 10);
  a.add_gauge_max("high_water", 7);
  a.add_sum("service_us", 1.5);
  b.add_counter("events", 32);
  b.add_gauge_max("high_water", 3);
  b.add_sum("service_us", 2.25);
  b.add_counter("only_in_b", 1);

  a.merge(b);
  ASSERT_EQ(a.metrics().size(), 4u);
  EXPECT_EQ(a.metrics()[0].count, 42u);        // counter: sum
  EXPECT_EQ(a.metrics()[1].count, 7u);         // gauge_max: max
  EXPECT_DOUBLE_EQ(a.metrics()[2].value, 3.75);  // sum: add
  EXPECT_EQ(a.metrics()[3].name, "only_in_b");   // unseen appends in b's order
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  registry.add_counter("x", 1);
  EXPECT_THROW(registry.add_sum("x", 1.0), std::invalid_argument);
  Registry other;
  other.add_gauge_max("x", 1);
  EXPECT_THROW(registry.merge(other), std::invalid_argument);
}

TEST(Registry, StableTextSkipsUnstableMetrics) {
  Registry registry;
  registry.add_counter("stable.count", 3);
  registry.add_counter("pool.busy_ns", 12345, /*stable=*/false);
  registry.add_sum("stable.sum", 0.5);
  const std::string text = registry.stable_text();
  EXPECT_NE(text.find("stable.count 3\n"), std::string::npos);
  EXPECT_NE(text.find("stable.sum 0.5\n"), std::string::npos);
  EXPECT_EQ(text.find("pool.busy_ns"), std::string::npos);
}

TEST(Registry, JsonRoundTripsThroughUtilJson) {
  Registry registry;
  registry.add_counter("sim.events", 14526);
  registry.add_sum("ops.read.response_sum_us", 3361768.6936741807);
  registry.add_counter("pool.jobs", 4, /*stable=*/false);

  const util::JsonValue parsed = util::parse_json(registry.to_json().dump());
  EXPECT_DOUBLE_EQ(parsed.at("metrics").at("sim.events").as_number(), 14526.0);
  EXPECT_DOUBLE_EQ(parsed.at("metrics").at("ops.read.response_sum_us").as_number(),
                   3361768.6936741807);
  EXPECT_DOUBLE_EQ(parsed.at("timing").at("pool.jobs").as_number(), 4.0);
  EXPECT_EQ(parsed.at("metrics").find("pool.jobs"), nullptr);
}

TEST(OpStats, AddMergeExport) {
  core::OpRecord read;
  read.op = fsmodel::FsOpType::read;
  read.response_us = 10.0;
  read.actual_bytes = 512;
  core::OpStats a, b;
  a.add(read);
  b.add(read);
  b.add(read);
  a.merge(b);
  EXPECT_EQ(a.ops(), 3u);
  EXPECT_EQ(a.bytes_moved, 1536u);

  Registry registry;
  SimSample{}.export_into(registry, a);
  // Only op types that occurred export (no zero-noise rows).
  const std::string text = registry.stable_text();
  EXPECT_NE(text.find("ops.read.count 3\n"), std::string::npos);
  EXPECT_NE(text.find("ops.read.response_sum_us 30\n"), std::string::npos);
  EXPECT_NE(text.find("ops.read.bytes 1536\n"), std::string::npos);
  EXPECT_EQ(text.find("ops.write"), std::string::npos);
}

// --- trace ring -------------------------------------------------------------

TraceEvent event_at(double ts, std::uint32_t name_id) {
  TraceEvent e;
  e.ts_us = ts;
  e.name_id = name_id;
  e.dur_us = 1.0;
  return e;
}

TEST(TraceRing, KeepsTrailingWindowAndCountsDrops) {
  TraceRing ring(3);
  const std::uint32_t id = ring.intern("op");
  for (int i = 0; i < 5; ++i) ring.push(event_at(i, id));
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto ordered = ring.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_DOUBLE_EQ(ordered.front().ts_us, 2.0);  // oldest surviving
  EXPECT_DOUBLE_EQ(ordered.back().ts_us, 4.0);
}

TEST(TraceRing, DisabledRingDropsEverything) {
  TraceRing ring;  // capacity 0
  EXPECT_FALSE(ring.enabled());
  ring.push(event_at(0, 0));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(TraceRing, AppendGrowsCapacityAndRemapsNames) {
  TraceRing a(2), b(2);
  a.push(event_at(1.0, a.intern("alpha")));
  b.push(event_at(2.0, b.intern("beta")));
  b.push(event_at(3.0, b.intern("alpha")));  // shared name, different id in b
  a.append(b);
  EXPECT_EQ(a.capacity(), 4u);  // budgets sum: merging never evicts
  const auto ordered = a.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(a.names().at(ordered[0].name_id), "alpha");
  EXPECT_EQ(a.names().at(ordered[1].name_id), "beta");
  EXPECT_EQ(a.names().at(ordered[2].name_id), "alpha");
}

TEST(RingShare, SplitsBudgetDeterministically) {
  EXPECT_EQ(ring_share(100, 4), 25u);
  EXPECT_EQ(ring_share(3, 8), 1u);   // non-zero budget never rounds to zero
  EXPECT_EQ(ring_share(0, 8), 0u);   // zero budget stays off
}

TEST(StageTraceSlot, ScopedInstallRestores) {
  ASSERT_EQ(stage_trace_slot(), nullptr);
  TraceRing outer(4), inner(4);
  {
    ScopedStageTrace a(&outer);
    EXPECT_EQ(stage_trace_slot(), &outer);
    {
      ScopedStageTrace b(&inner);
      EXPECT_EQ(stage_trace_slot(), &inner);
    }
    EXPECT_EQ(stage_trace_slot(), &outer);
  }
  EXPECT_EQ(stage_trace_slot(), nullptr);
}

TEST(ChromeTrace, EmitsLoadableJson) {
  TraceRing ring(8);
  TraceEvent e = event_at(5.0, ring.intern("read"));
  e.track = 1;
  e.user = 1;
  e.session = 0;
  ring.push(e);
  TraceGroup group;
  group.label = "test · ops";
  group.ring = &ring;
  group.by_session = true;
  const util::JsonValue doc = util::parse_json(chrome_trace_json({group}));
  const util::JsonValue& events = doc.at("traceEvents");
  // The op span, its session span, and the process/thread metadata records.
  EXPECT_GE(events.as_array().size(), 3u);
}

// --- build provenance + rng draw counting -----------------------------------

TEST(Version, ReportsBuildInfo) {
  const util::BuildInfo& info = util::build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_NE(util::version_line().find("wlgen "), std::string::npos);
}

TEST(RngDraws, CountsUniformPathDraws) {
  util::RngStream rng(7, "obs/test");
  EXPECT_EQ(rng.uniform_draws(), 0u);
  for (int i = 0; i < 300; ++i) rng.uniform01();
  EXPECT_EQ(rng.uniform_draws(), 300u);
}

// --- pool accounting --------------------------------------------------------

TEST(PoolObs, AccountsJobsAndSpans) {
  runner::PoolObs obs;
  obs.record_spans = true;
  runner::drain_pool(6, 2, [&]() -> runner::PoolJob {
    return [](std::size_t, const std::atomic<bool>&) {
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    };
  }, &obs);
  EXPECT_EQ(obs.workers.size(), 2u);
  EXPECT_EQ(obs.jobs(), 6u);
  EXPECT_EQ(obs.spans.size(), 6u);
  EXPECT_GT(obs.busy_ns(), 0u);
  std::uint64_t per_worker_jobs = 0;
  for (const auto& w : obs.workers) per_worker_jobs += w.jobs;
  EXPECT_EQ(per_worker_jobs, 6u);
}

// --- the headline invariance: merged obs counters --------------------------

ObsConfig collecting_obs() {
  ObsConfig obs;
  obs.metrics_file = "-";  // any non-empty value turns collection on
  return obs;
}

ObsConfig tracing_obs() {
  ObsConfig obs = collecting_obs();
  obs.trace_file = "-";
  obs.trace_events = 4096;
  return obs;
}

runner::RunnerConfig sharded_config(std::size_t shards, std::size_t threads) {
  runner::RunnerConfig config;
  config.num_users = 8;
  config.shards = shards;
  config.threads = threads;
  config.seed = 2024;
  config.usim.sessions_per_user = 3;
  config.population = core::mixed_population(0.5);
  config.obs = collecting_obs();
  return config;
}

TEST(ShardedObs, StableMetricsInvariantAcrossShardsAndThreads) {
  const std::string baseline =
      runner::ShardedRunner(sharded_config(1, 1)).run().registry.stable_text();
  EXPECT_FALSE(baseline.empty());
  for (std::size_t shards : {4u, 8u}) {
    for (std::size_t threads : {1u, 4u, 8u}) {
      const auto result = runner::ShardedRunner(sharded_config(shards, threads)).run();
      EXPECT_EQ(result.registry.stable_text(), baseline)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST(ShardedObs, TracingNeverChangesResults) {
  runner::RunnerConfig off = sharded_config(4, 4);
  off.obs = ObsConfig{};
  const auto untraced = runner::ShardedRunner(std::move(off)).run();

  runner::RunnerConfig on = sharded_config(4, 4);
  on.obs = tracing_obs();
  const auto traced = runner::ShardedRunner(std::move(on)).run();

  const core::UsageLog untraced_log = core::materialize(*core::open_spilled_log(untraced.log_runs));
  ASSERT_GT(untraced_log.size(), 0u);
  EXPECT_EQ(core::materialize(*core::open_spilled_log(traced.log_runs)).serialize(),
            untraced_log.serialize());
  EXPECT_EQ(traced.stats.response_us().mean(), untraced.stats.response_us().mean());
  EXPECT_TRUE(traced.trace.enabled());
  EXPECT_GT(traced.trace.ops.pushed() + traced.trace.stages.pushed(), 0u);
}

runner::ContendedConfig contended_config(std::size_t threads) {
  runner::ContendedConfig config;
  config.user_points = {1, 2, 3};
  config.replications = 2;
  config.threads = threads;
  config.seed = 2024;
  config.usim.sessions_per_user = 3;
  config.population = core::mixed_population(0.5);
  config.obs = collecting_obs();
  return config;
}

TEST(ContendedObs, StableMetricsInvariantAcrossThreads) {
  const std::string baseline =
      runner::ContendedRunner(contended_config(1)).run().registry.stable_text();
  EXPECT_FALSE(baseline.empty());
  for (std::size_t threads : {4u, 8u}) {
    const auto result = runner::ContendedRunner(contended_config(threads)).run();
    EXPECT_EQ(result.registry.stable_text(), baseline) << threads << " threads";
  }
}

TEST(ContendedObs, TracingNeverChangesPointStats) {
  runner::ContendedConfig off = contended_config(4);
  off.obs = ObsConfig{};
  const auto untraced = runner::ContendedRunner(std::move(off)).run();

  runner::ContendedConfig on = contended_config(4);
  on.obs = tracing_obs();
  const auto traced = runner::ContendedRunner(std::move(on)).run();

  ASSERT_EQ(traced.points.size(), untraced.points.size());
  for (std::size_t i = 0; i < traced.points.size(); ++i) {
    EXPECT_EQ(traced.points[i].stats.response_us().mean(),
              untraced.points[i].stats.response_us().mean());
    EXPECT_EQ(traced.points[i].total_ops, untraced.points[i].total_ops);
  }
  EXPECT_TRUE(traced.trace.enabled());
}

// --- scenario layer ---------------------------------------------------------

constexpr const char* kScenario = R"(
[scenario]
name = obs-test
mode = contended
seed = 7

[workload]
users = 1:2:1
sessions = 3

[contended]
replications = 2

[model]
name = nfs
)";

TEST(ScenarioObs, ObsTextInvariantAndDigestUnchanged) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(kScenario);

  scenario::RunOptions plain;
  plain.threads = 2;
  const scenario::ScenarioOutcome untraced = scenario::run_scenario(spec, plain);
  EXPECT_TRUE(untraced.obs_text.empty());

  const std::string dir = ::testing::TempDir();
  std::string baseline;
  for (std::size_t threads : {1u, 4u, 8u}) {
    scenario::RunOptions options;
    options.threads = threads;
    options.metrics_file = dir + "obs_test_metrics.json";
    options.trace_file = dir + "obs_test_trace.json";
    const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, options);

    // Obs on never changes the result digest, and the merged obs counters
    // are themselves thread-count invariant.
    EXPECT_EQ(outcome.stats_digest, untraced.stats_digest) << threads << " threads";
    ASSERT_FALSE(outcome.obs_text.empty());
    if (baseline.empty()) baseline = outcome.obs_text;
    EXPECT_EQ(outcome.obs_text, baseline) << threads << " threads";

    // Both artifacts parse with the repo's own JSON reader.
    const util::JsonValue metrics = util::parse_json(outcome.metrics_json);
    EXPECT_EQ(metrics.at("schema").as_string(), "wlgen-metrics-v1");
    EXPECT_EQ(metrics.at("groups").as_array().size(), 1u);
    const util::JsonValue trace = util::parse_json(outcome.trace_json);
    EXPECT_GT(trace.at("traceEvents").as_array().size(), 0u);
  }
}

TEST(ScenarioObs, SpecKeysParseAndValidate) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(R"(
[scenario]
name = keys
mode = sharded

[workload]
users = 2
sessions = 2

[model]
name = nfs

[obs]
metrics = out/metrics.json
trace = out/trace.json
trace_events = 1024
progress = true
)");
  EXPECT_EQ(spec.obs_metrics, "out/metrics.json");
  EXPECT_EQ(spec.obs_trace, "out/trace.json");
  EXPECT_EQ(spec.obs_trace_events, 1024u);
  EXPECT_TRUE(spec.obs_progress);

  EXPECT_THROW(scenario::ScenarioSpec::parse_text(R"(
[scenario]
name = bad
[workload]
users = 1
[model]
name = nfs
[obs]
trace_events = 0
)"),
               std::invalid_argument);
}

// --- progress reporter ------------------------------------------------------

TEST(Progress, AdvanceAndStopAreSafe) {
  ProgressReporter::Options options;
  options.label = "obs-test";
  options.unit = "units";
  options.total_units = 4;
  options.interval_ms = 5;
  testing::internal::CaptureStderr();
  ProgressReporter progress(options);
  for (int i = 0; i < 4; ++i) progress.advance(1, 100, 50.0);
  progress.note_sim_time(123.0);
  progress.stop();
  progress.stop();  // idempotent
  const std::string text = testing::internal::GetCapturedStderr();
  // One final line, naming the run, its progress against the total and
  // the unit.
  const std::string done = "[wlgen] obs-test done: 4/4 units (100%) | ";
  EXPECT_NE(text.find(done), std::string::npos) << text;
  EXPECT_EQ(text.find(done), text.rfind(done)) << text;
}

}  // namespace
}  // namespace wlgen::obs
