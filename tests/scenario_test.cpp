// Tests for the declarative scenario subsystem (src/scenario/) and the
// spec-driven CLI help (tools/cli_spec):
//
// * ScenarioSpec parsing — defaults, modes, model lists, overrides — and
//   its failure modes (unknown keys, mode-scoped keys, bad values, unknown
//   model parameters), all with origin:line-prefixed messages;
// * model-factory parameter-override plumbing (runner::ModelParamOverride);
// * the committed scenarios/ library: every *.scn parses, the three run
//   modes and three backends (each with >= 1 override) are all covered;
// * the end-to-end determinism pin: the same .scn yields a byte-identical
//   merged-stats digest at 1 and 8 threads, for every run mode;
// * CLI help drift-proofing: every flag a command accepts appears in its
//   generated help and in the global usage block;
// * the `wlgen run` flag -> ScenarioSpec table (tools/run_flags): every flag
//   lands in its spec field, every rejected combination names its flag,
//   and the accept set per run path is pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/usage_log.h"
#include "fsmodel/local_model.h"
#include "fsmodel/nfs_model.h"
#include "fsmodel/wholefile_model.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "sim/simulation.h"
#include "tools/cli_spec.h"
#include "tools/run_flags.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::scenario {
namespace {

// --- spec parsing -----------------------------------------------------------

TEST(ScenarioSpec, ParsesAFullContendedScenario) {
  const ScenarioSpec spec = ScenarioSpec::parse_text(
      "[scenario]\n"
      "name = demo\n"
      "description = \"a demo; with punctuation # preserved\"\n"
      "mode = contended\n"
      "seed = 7\n"
      "threads = 2\n"
      "[workload]\n"
      "users = 1:5:2\n"
      "sessions = 4\n"
      "heavy_fraction = 0.5\n"
      "pattern = zipf\n"
      "markov = 0.3\n"
      "windows = 2\n"
      "think_time = exp(theta=4000)\n"
      "[contended]\n"
      "replications = 2\n"
      "confidence = 0.9\n"
      "[model]\n"
      "name = nfs\n"
      "nfs.readahead_blocks = 3\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.description, "a demo; with punctuation # preserved");
  EXPECT_EQ(spec.mode, RunMode::contended);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.user_points, (std::vector<std::size_t>{1, 3, 5}));
  EXPECT_EQ(spec.sessions, 4u);
  EXPECT_DOUBLE_EQ(spec.heavy_fraction, 0.5);
  EXPECT_EQ(spec.pattern, core::AccessPattern::zipf_block);
  EXPECT_DOUBLE_EQ(spec.markov, 0.3);
  EXPECT_EQ(spec.windows, 2u);
  EXPECT_EQ(spec.replications, 2u);
  EXPECT_DOUBLE_EQ(spec.confidence, 0.9);
  ASSERT_EQ(spec.models.size(), 1u);
  EXPECT_EQ(spec.models[0].name, "nfs");
  ASSERT_EQ(spec.models[0].overrides.size(), 1u);
  EXPECT_EQ(spec.models[0].overrides[0].key, "readahead_blocks");
  EXPECT_DOUBLE_EQ(spec.models[0].overrides[0].value, 3.0);
}

TEST(ScenarioSpec, DefaultsAreTheMinimalContendedRun) {
  const ScenarioSpec spec = ScenarioSpec::parse_text("[scenario]\nmode = contended\n");
  EXPECT_EQ(spec.user_points, (std::vector<std::size_t>{1}));
  EXPECT_EQ(spec.sessions, 50u);
  ASSERT_EQ(spec.models.size(), 1u);
  EXPECT_EQ(spec.models[0].name, "nfs");
  EXPECT_TRUE(spec.models[0].overrides.empty());
}

TEST(ScenarioSpec, PopulationAppliesInlineDistributionOverrides) {
  const ScenarioSpec spec = ScenarioSpec::parse_text(
      "[scenario]\nmode = sharded\n"
      "[workload]\nthink_time = constant(1234)\n");
  const core::Population population = spec.population();
  ASSERT_FALSE(population.groups.empty());
  EXPECT_DOUBLE_EQ(population.groups[0].type.think_time_us->mean(), 1234.0);
}

struct FailureCase {
  const char* text;
  const char* needle;  ///< must appear in the error message
};

class ScenarioSpecFailure : public ::testing::TestWithParam<FailureCase> {};

TEST_P(ScenarioSpecFailure, FailsWithAnnotatedMessage) {
  try {
    (void)ScenarioSpec::parse_text(GetParam().text, "bad.scn");
    FAIL() << "expected std::invalid_argument containing '" << GetParam().needle << "'";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bad.scn:"), std::string::npos)
        << "no origin:line prefix in: " << message;
    EXPECT_NE(message.find(GetParam().needle), std::string::npos)
        << "missing '" << GetParam().needle << "' in: " << message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FailureModes, ScenarioSpecFailure,
    ::testing::Values(
        FailureCase{"[scenario]\nmode = turbo\n", "sharded | contended | replay"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\nusersx = 3\n",
                    "not a recognised key"},
        FailureCase{"[scenario]\nmode = sharded\n[workload]\nusers = 1:6:1\n",
                    "require scenario.mode = contended"},
        FailureCase{"[scenario]\nmode = sharded\n[workload]\nusers = 0\n",
                    "key 'workload.users' is invalid: user count expects at least 1 user, got '0'"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\nusers = 0:3\n",
                    "user sweep needs 1 <= A <= B and STEP >= 1, got '0:3'"},
        FailureCase{"[scenario]\nmode = sharded\n[contended]\nreplications = 2\n",
                    "only meaningful when scenario.mode = contended"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\nheavy_fraction = 1.5\n",
                    "fraction in [0, 1]"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\npattern = backwards\n",
                    "seq | random | zipf"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\nsessions = none\n",
                    "non-negative integer"},
        // strtod reads nan and inf; NaN would pass every range check.
        FailureCase{"[scenario]\nmode = contended\n[workload]\nheavy_fraction = nan\n",
                    "expects a finite number"},
        FailureCase{"[scenario]\nmode = replay\n[replay]\ntime_scale = nan\n",
                    "expects a finite number"},
        FailureCase{"[scenario]\nmode = sharded\n[arrivals]\nrate = inf\n",
                    "expects a finite number"},
        FailureCase{"[scenario]\nmode = contended\n[model]\nname = afs\n", "unknown model"},
        FailureCase{"[scenario]\nmode = contended\n[model]\nname = nfs\n"
                    "nfs.warp_factor = 9\n",
                    "unknown parameter 'warp_factor'"},
        FailureCase{"[scenario]\nmode = contended\n[model]\nname = nfs\n"
                    "nfs.readahead_blocks = 1.5\n",
                    "non-negative integer"},
        FailureCase{"[scenario]\nmode = contended\n[model]\nname = nfs\n"
                    "local.cache_hit_us = 10\n",
                    "does not run"},
        FailureCase{"[scenario]\nmode = contended\n[output]\nlog = out.tsv\n",
                    "no merged usage log"},
        // A sharded run keeps its log exactly when output.log or log.spill
        // asks for it; there is no key to keep or drop it.
        FailureCase{"[scenario]\nmode = sharded\n[sharded]\ncollect_log = false\n",
                    "key 'sharded.collect_log' is not a recognised key"},
        // The batched-draw knob is retired: its key is unknown, not ignored.
        FailureCase{"[scenario]\nmode = sharded\n[workload]\ndraw_batch = 16\n",
                    "bad.scn:4: key 'workload.draw_batch' is not a recognised key"},
        FailureCase{"[scenario]\nmode = contended\n[workload]\nthink_time = warp(9)\n",
                    "is invalid"},
        FailureCase{"[scenario]\nmode = contended\n[log]\nspill = true\n",
                    "only meaningful when scenario.mode = sharded"},
        FailureCase{"[scenario]\nmode = sharded\n[log]\nspool_dir = /tmp/x\n",
                    "only meaningful with log.spill"},
        FailureCase{"[scenario]\nmode = sharded\n[log]\ncheckpoint = true\n",
                    "requires log.spill = true"},
        FailureCase{"[scenario]\nmode = sharded\n[sharded]\nresume = true\n",
                    "requires log.checkpoint = true"},
        // Open-system traffic sections (src/traffic/, docs/SCENARIOS.md).
        FailureCase{"[scenario]\nmode = sharded\n[arrivals]\nrate = -1\n",
                    "positive session arrival rate"},
        FailureCase{"[scenario]\nmode = sharded\n[arrivals]\nprocess = lava\n",
                    "poisson | mmpp | heavy"},
        FailureCase{"[scenario]\nmode = sharded\n[arrivals]\nflash_at = 5\n",
                    "needs arrivals.flash_duration"},
        FailureCase{"[scenario]\nmode = sharded\n[workload]\nwindows = 2\n"
                    "[arrivals]\nrate = 1\n",
                    "conflicts with [arrivals]"},
        // Unknown fault kind: only slowdown/flush/churn exist.
        FailureCase{"[scenario]\nmode = sharded\n[faults]\nblackout = 1:2\n",
                    "not a recognised key"},
        FailureCase{"[scenario]\nmode = sharded\n[faults]\nslowdown = 5:2:3\n",
                    "inverted or empty"},
        FailureCase{"[scenario]\nmode = sharded\n[faults]\nslowdown = 0:10:2, 5:15:2\n",
                    "windows overlap"},
        FailureCase{"[scenario]\nmode = sharded\n[faults]\nslowdown = 0:10\n",
                    "expects 3 colon-separated numbers"},
        FailureCase{"[scenario]\nmode = sharded\n[faults]\nchurn = 0:10:1.5\n",
                    "fraction must be in [0, 1]"},
        FailureCase{"[scenario]\nmode = replay\n[arrivals]\nrate = 1\n",
                    "not meaningful under scenario.mode = replay"}));

// --- model parameter overrides ---------------------------------------------

TEST(ModelOverrides, ApplyToEachBackend) {
  sim::Simulation sim;

  const auto nfs = runner::model_factory_by_name("nfs", {{"readahead_blocks", 4.0}})(sim);
  EXPECT_EQ(dynamic_cast<fsmodel::NfsModel&>(*nfs).params().readahead_blocks, 4u);

  const auto local =
      runner::model_factory_by_name("local", {{"buffer_cache_blocks", 99.0}})(sim);
  EXPECT_EQ(dynamic_cast<fsmodel::LocalDiskModel&>(*local).params().buffer_cache_blocks, 99u);

  const auto wholefile =
      runner::model_factory_by_name("wholefile", {{"cache_files", 7.0}})(sim);
  EXPECT_EQ(dynamic_cast<fsmodel::WholeFileCacheModel&>(*wholefile).params().cache_files, 7u);
}

TEST(ModelOverrides, RejectBadKeysAndDomains) {
  EXPECT_THROW(runner::model_factory_by_name("nfs", {{"nope", 1.0}}), std::invalid_argument);
  // Integral parameter, fractional value.
  EXPECT_THROW(runner::model_factory_by_name("nfs", {{"block_size", 0.5}}),
               std::invalid_argument);
  // Boolean parameter only takes 0/1.
  EXPECT_THROW(runner::model_factory_by_name("nfs", {{"async_writes", 2.0}}),
               std::invalid_argument);
  EXPECT_NO_THROW(runner::model_factory_by_name("nfs", {{"async_writes", 0.0}}));
  EXPECT_THROW(runner::model_param_keys("afs"), std::invalid_argument);
  // The key list is the override universe.
  const auto keys = runner::model_param_keys("local");
  EXPECT_NE(std::find(keys.begin(), keys.end(), "cache_hit_us"), keys.end());
}

// --- end-to-end thread invariance ------------------------------------------

std::string digest_with_threads(const std::string& text, std::size_t threads) {
  const ScenarioSpec spec = ScenarioSpec::parse_text(text);
  RunOptions options;
  options.threads = threads;
  return run_scenario(spec, options).stats_digest;
}

TEST(ScenarioRun, ContendedDigestIsThreadCountInvariant) {
  const std::string text =
      "[scenario]\nmode = contended\nname = pin\n"
      "[workload]\nusers = 1:3:1\nsessions = 2\n"
      "[contended]\nreplications = 2\n"
      "[model]\nname = nfs\n";
  const std::string one = digest_with_threads(text, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, digest_with_threads(text, 8));
}

TEST(ScenarioRun, ShardedDigestIsThreadCountInvariant) {
  const std::string text =
      "[scenario]\nmode = sharded\nname = pin\n"
      "[workload]\nusers = 6\nsessions = 2\n"
      "[sharded]\nshards = 3\n"
      "[model]\nname = local\nlocal.buffer_cache_blocks = 512\n";
  const std::string one = digest_with_threads(text, 1);
  EXPECT_EQ(one, digest_with_threads(text, 8));
}

TEST(ScenarioRun, MultiModelDigestIsThreadCountInvariant) {
  // Three backends fan over the worker pool (scenario/run.cpp); the digest
  // folds per-index slots in spec order, so any --threads must reproduce the
  // serial digest byte for byte — the scenario-parallelism contract.
  const std::string text =
      "[scenario]\nmode = sharded\nname = pin-multi\n"
      "[workload]\nusers = 6\nsessions = 2\n"
      "[sharded]\nshards = 2\n"
      "[model]\nnames = nfs, local, wholefile\n";
  const std::string one = digest_with_threads(text, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, digest_with_threads(text, 8));
  // Model sections appear in spec order regardless of completion order.
  EXPECT_LT(one.find("model nfs"), one.find("model local"));
  EXPECT_LT(one.find("model local"), one.find("model wholefile"));
}

// --- streaming spill at the scenario layer ----------------------------------

TEST(ScenarioSpec, LogSpillParsesDefaultsAndSummary) {
  const ScenarioSpec spec = ScenarioSpec::parse_text(
      "[scenario]\nmode = sharded\nname = Spill Demo\n"
      "[log]\nspill = true\ncheckpoint = true\n");
  EXPECT_TRUE(spec.log_spill);
  EXPECT_TRUE(spec.log_checkpoint);
  EXPECT_FALSE(spec.resume);
  // Default spool directory derives from the scenario name.
  EXPECT_EQ(spec.log_spool_dir, ".wlgen-spool/spill_demo");
  EXPECT_NE(spec.summary().find("log: spill -> .wlgen-spool/spill_demo, checkpointed"),
            std::string::npos);
}

std::string spill_scenario_text(const std::string& spool, const std::string& log_extra = "",
                                const std::string& sharded_extra = "") {
  return
      "[scenario]\nmode = sharded\nname = pin-spill\n"
      "[workload]\nusers = 6\nsessions = 2\n"
      "[sharded]\nshards = 3\n" + sharded_extra +
      "[log]\nspill = true\nspool_dir = " + spool + "\n" + log_extra +
      "[model]\nname = nfs\n";
}

TEST(ScenarioRun, SpillDigestMatchesInMemoryDigestAtBothThreadCounts) {
  // The headline scenario-level pin: turning the spill pipeline on (any
  // thread count) must not move the stats digest by a single byte relative
  // to the historical in-memory path.
  const std::string in_memory_text =
      "[scenario]\nmode = sharded\nname = pin-spill\n"
      "[workload]\nusers = 6\nsessions = 2\n"
      "[sharded]\nshards = 3\n"
      "[model]\nname = nfs\n";
  const auto spool = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_spill";
  std::filesystem::remove_all(spool);
  const std::string spill_text = spill_scenario_text(spool.string());

  const std::string reference = digest_with_threads(in_memory_text, 1);
  EXPECT_FALSE(reference.empty());
  EXPECT_NE(reference.find("response_sketch"), std::string::npos);
  EXPECT_EQ(digest_with_threads(spill_text, 1), reference);
  std::filesystem::remove_all(spool);
  EXPECT_EQ(digest_with_threads(spill_text, 8), reference);
  std::filesystem::remove_all(spool);
}

TEST(ScenarioRun, ResumedScenarioReproducesTheDigest) {
  const auto spool = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_resume";
  std::filesystem::remove_all(spool);
  const std::string checkpointed = spill_scenario_text(spool.string(), "checkpoint = true\n");
  const std::string resumed =
      spill_scenario_text(spool.string(), "checkpoint = true\n", "resume = true\n");

  const std::string first = digest_with_threads(checkpointed, 2);
  // Second run resumes every shard from the spool and must reproduce the
  // digest byte for byte — the crash-recovery contract.
  EXPECT_EQ(digest_with_threads(resumed, 2), first);
  std::filesystem::remove_all(spool);
}

TEST(ScenarioRun, ResumeRefusesCheckpointsOfAnEditedGdsFile) {
  // The checkpoints of a run with a GDS file describe that file's contents,
  // not just its path: after an edit, resume must refuse the spool rather
  // than return the stale run's digest.
  const auto dir = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_gds_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string gds = (dir / "think.gds").string();
  const std::string spool = (dir / "spool").string();
  const std::string workload = "users = 6\nsessions = 2\ngds = " + gds + "\n";
  const auto scenario = [&](const std::string& sharded_extra) {
    return "[scenario]\nmode = sharded\nname = pin-gds\n[workload]\n" + workload +
           "[sharded]\nshards = 3\n" + sharded_extra + "[log]\nspill = true\n"
           "checkpoint = true\nspool_dir = " + spool + "\n[model]\nname = nfs\n";
  };

  util::write_text_file(gds, "think_time = exp(theta=5000)\n");
  const std::string first = digest_with_threads(scenario(""), 2);
  EXPECT_EQ(digest_with_threads(scenario("resume = true\n"), 2), first);

  util::write_text_file(gds, "think_time = exp(theta=90000)\n");
  try {
    (void)digest_with_threads(scenario("resume = true\n"), 2);
    FAIL() << "resume accepted checkpoints written before the GDS file changed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different configuration"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(ScenarioRun, SpilledScenarioStillWritesTheOutputLog) {
  const auto spool = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_outlog";
  const auto log_path = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_outlog.tsv";
  std::filesystem::remove_all(spool);
  std::filesystem::remove(log_path);
  const std::string text =
      spill_scenario_text(spool.string()) + "[output]\nlog = " + log_path.string() + "\n";
  const ScenarioOutcome outcome = run_scenario(ScenarioSpec::parse_text(text));
  ASSERT_EQ(outcome.models.size(), 1u);
  ASSERT_FALSE(outcome.models[0].log_runs.empty());
  EXPECT_FALSE(outcome.models[0].log_runs.front().path.empty());
  EXPECT_GT(outcome.models[0].response_sketch.count(), 0u);
  EXPECT_TRUE(std::filesystem::exists(log_path));
  EXPECT_GT(std::filesystem::file_size(log_path), 0u);
  std::filesystem::remove_all(spool);
  std::filesystem::remove(log_path);
}

TEST(ScenarioRun, ReplayModeRunsTheAbComparison) {
  const std::string text =
      "[scenario]\nmode = replay\nname = ab\n"
      "[workload]\nusers = 1\nsessions = 2\n"
      "[replay]\nclosed_loop = true\nsynthetic_users = 2\n"
      "[model]\nname = nfs\n";
  const ScenarioSpec spec = ScenarioSpec::parse_text(text);
  const ScenarioOutcome outcome = run_scenario(spec);
  ASSERT_EQ(outcome.models.size(), 1u);
  ASSERT_EQ(outcome.models[0].points.size(), 2u);  // replay leg + synthetic leg
  EXPECT_EQ(outcome.models[0].points[0].users, 1u);
  EXPECT_EQ(outcome.models[0].points[1].users, 2u);
  EXPECT_GT(outcome.models[0].points[0].ops, 0u);
  EXPECT_GT(outcome.models[0].points[1].ops, 0u);
  // No [output] log: the replayed log is not kept.
  EXPECT_TRUE(outcome.models[0].log_runs.empty());
  // Replay is serial; the digest must still be invariant to the knob.
  EXPECT_EQ(digest_with_threads(text, 1), digest_with_threads(text, 8));
}

TEST(ScenarioRun, ReplayRejectsATraceWithNoRecords) {
  const auto trace = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_empty_trace.log";
  util::write_text_file(trace.string(),
                        std::string(core::usage_log_header_line()) + "# no records\n\n");
  for (const char* closed_loop : {"false", "true"}) {  // streamed and loaded
    const ScenarioSpec spec = ScenarioSpec::parse_text(
        std::string("[scenario]\nmode = replay\nname = empty\n[replay]\nclosed_loop = ") +
        closed_loop + "\ntrace = " + trace.string() + "\n[model]\nname = local\n");
    try {
      run_scenario(spec);
      ADD_FAILURE() << "an empty trace was replayed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), trace.string() + ": no records to replay");
    }
  }
  std::filesystem::remove(trace);
}

TEST(ScenarioRun, ReplayCountsTheLargestUserIdOfALoadedTrace) {
  // A loaded trace's population is its highest user id plus one, computed
  // without wrapping, and its sessions are counted by the replay.
  const auto trace = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_max_user.log";
  core::UsageLog log;
  core::OpRecord record;
  record.user = 4294967295u;
  record.session = 3;
  record.op = fsmodel::FsOpType::read;
  record.requested_bytes = record.actual_bytes = 100;
  record.file_size = 1000;
  log.append(record);
  record.issue_time_us = 10.0;
  log.append(record);
  util::write_text_file(trace.string(), log.serialize());
  for (const char* closed_loop : {"false", "true"}) {  // streamed and loaded
    const ScenarioSpec spec = ScenarioSpec::parse_text(
        std::string("[scenario]\nmode = replay\nname = max_user\n[replay]\nclosed_loop = ") +
        closed_loop + "\ntrace = " + trace.string() + "\n[model]\nname = local\n");
    const ScenarioOutcome outcome = run_scenario(spec);
    EXPECT_NE(outcome.stats_digest.find("users=4294967296 "), std::string::npos)
        << outcome.stats_digest;
    EXPECT_NE(outcome.stats_digest.find(" ops=2 sessions=1 "), std::string::npos)
        << outcome.stats_digest;
  }
  std::filesystem::remove(trace);
}

TEST(ScenarioRun, ReplayRejectsATimeScaleThatOverflowsTheClock) {
  // The recorded trace spans seconds; 1e308 stretches it to inf, which
  // would write `inf` issue times and NaN responses to the log.
  for (const char* closed_loop : {"false", "true"}) {
    const ScenarioSpec spec = ScenarioSpec::parse_text(
        std::string("[scenario]\nmode = replay\nname = overflow\n"
                    "[workload]\nusers = 1\nsessions = 1\n"
                    "[replay]\ntime_scale = 1e308\nclosed_loop = ") +
        closed_loop + "\n[model]\nname = local\n");
    EXPECT_THROW(run_scenario(spec), std::invalid_argument) << closed_loop;
  }
}

TEST(ScenarioRun, ReplayTimeScaleOverflowNamesTheScenarioLine) {
  // The scale comes from the .scn file, so the error names the line that
  // set it.
  const auto path = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_overflow.scn";
  util::write_text_file(path.string(),
                        "[scenario]\nmode = replay\nname = overflow\n"
                        "[workload]\nusers = 1\nsessions = 1\n"
                        "[replay]\nclosed_loop = false\ntime_scale = 1e308\n"
                        "[model]\nname = local\n");
  const ScenarioSpec spec = ScenarioSpec::parse_file(path.string());
  try {
    run_scenario(spec);
    ADD_FAILURE() << "an overflowing time scale replayed";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind(path.string() + ":9: TraceReplayer: time_scale 1e+308 ", 0), 0u)
        << message;
  }
  std::filesystem::remove(path);
}

TEST(ScenarioRun, ReplayTraceParseErrorNamesTheTraceLine) {
  // A malformed trace line is the trace file's error, not the scenario's:
  // it names the trace line even when the .scn sets time_scale.
  const auto trace = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_bad_trace.log";
  core::UsageLog log;
  core::OpRecord record;
  record.op = fsmodel::FsOpType::read;
  record.requested_bytes = record.actual_bytes = 100;
  record.file_size = 1000;
  log.append(record);
  record.issue_time_us = 10.0;
  log.append(record);
  const std::string text = log.serialize();
  const auto bad_line = std::count(text.begin(), text.end(), '\n') + 1;
  util::write_text_file(trace.string(), text + "not a record\n");
  for (const char* closed_loop : {"false", "true"}) {
    const ScenarioSpec spec = ScenarioSpec::parse_text(
        std::string("[scenario]\nmode = replay\nname = bad_trace\n"
                    "[replay]\ntime_scale = 2\nclosed_loop = ") +
        closed_loop + "\ntrace = " + trace.string() + "\n[model]\nnames = local, nfs\n");
    try {
      run_scenario(spec);
      ADD_FAILURE() << "a malformed trace replayed";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.rfind(trace.string() + ":" + std::to_string(bad_line) + ": ", 0), 0u)
          << message;
    }
  }
  std::filesystem::remove(trace);
}

TEST(ScenarioRun, ReplayKeepsTheReplayedLogOnlyForTheWrittenLog) {
  const std::string text =
      "[scenario]\nmode = replay\nname = keep\n"
      "[workload]\nusers = 2\nsessions = 1\n"
      "[replay]\nclosed_loop = false\n";
  const ScenarioOutcome two =
      run_scenario(ScenarioSpec::parse_text(text + "[model]\nnames = local, nfs\n"));
  ASSERT_EQ(two.models.size(), 2u);
  EXPECT_TRUE(two.models[0].log_runs.empty());
  EXPECT_TRUE(two.models[1].log_runs.empty());

  // [output] log (single-model only) keeps the replay that is written.
  const std::string one = text + "[model]\nname = local\n";
  const auto log_path = std::filesystem::path(::testing::TempDir()) / "wlgen_scn_keep.log";
  const ScenarioOutcome written = run_scenario(
      ScenarioSpec::parse_text(one + "[output]\nlog = " + log_path.string() + "\n"));
  ASSERT_EQ(written.models[0].log_runs.size(), 1u);
  EXPECT_EQ(written.models[0].log_runs.front().records, written.models[0].points[0].ops);
  EXPECT_EQ(core::read_log_file(log_path.string(), 1).size(), written.models[0].points[0].ops);
  const ScenarioOutcome unwritten = run_scenario(ScenarioSpec::parse_text(one));
  EXPECT_TRUE(unwritten.models[0].log_runs.empty());
  EXPECT_EQ(unwritten.stats_digest, written.stats_digest);
  std::filesystem::remove(log_path);
}

TEST(ScenarioRun, MultiModelScenarioReportsEveryBackend) {
  const std::string text =
      "[scenario]\nmode = contended\nname = compare\n"
      "[workload]\nusers = 2\nsessions = 2\n"
      "[contended]\nreplications = 1\n"
      "[model]\nnames = nfs, local, wholefile\n";
  const ScenarioOutcome outcome = run_scenario(ScenarioSpec::parse_text(text));
  ASSERT_EQ(outcome.models.size(), 3u);
  EXPECT_EQ(outcome.models[0].model, "nfs");
  EXPECT_EQ(outcome.models[1].model, "local");
  EXPECT_EQ(outcome.models[2].model, "wholefile");
  for (const auto& model : outcome.models) {
    ASSERT_EQ(model.points.size(), 1u);
    EXPECT_GT(model.points[0].ops, 0u);
  }
  EXPECT_NE(outcome.report.find("comparison"), std::string::npos);
}

// --- the committed scenario library ----------------------------------------

#ifdef WLGEN_SOURCE_DIR

TEST(ScenarioLibrary, EveryCommittedScenarioParsesAndCoversTheMatrix) {
  const std::vector<std::string> files =
      scenario_files(std::string(WLGEN_SOURCE_DIR) + "/scenarios");
  ASSERT_GE(files.size(), 5u);

  std::set<RunMode> modes;
  std::set<std::string> overridden_models;
  for (const auto& file : files) {
    const ScenarioSpec spec = ScenarioSpec::parse_file(file);
    EXPECT_FALSE(spec.name.empty()) << file;
    EXPECT_FALSE(spec.description.empty()) << file;
    modes.insert(spec.mode);
    for (const auto& model : spec.models) {
      if (!model.overrides.empty()) overridden_models.insert(model.name);
      // Each choice must compile to a working factory.
      sim::Simulation sim;
      EXPECT_NE(model.factory()(sim), nullptr) << file;
    }
  }
  // Acceptance matrix: all three run modes, all three backends reachable
  // with at least one parameter override each.
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_TRUE(overridden_models.count("nfs"));
  EXPECT_TRUE(overridden_models.count("local"));
  EXPECT_TRUE(overridden_models.count("wholefile"));
}

TEST(ScenarioLibrary, QuickstartRunsEndToEnd) {
  const ScenarioSpec spec =
      ScenarioSpec::parse_file(std::string(WLGEN_SOURCE_DIR) + "/scenarios/quickstart.scn");
  const ScenarioOutcome outcome = run_scenario(spec);
  ASSERT_EQ(outcome.models.size(), 1u);
  EXPECT_GT(outcome.models[0].points[0].ops, 0u);
  EXPECT_GT(outcome.models[0].points[0].sessions, 0u);
}

#endif  // WLGEN_SOURCE_DIR

// --- drift-proof CLI help ---------------------------------------------------

TEST(CliSpec, EveryFlagAppearsInItsCommandHelpAndTheUsageBlock) {
  const std::string usage = util::render_usage("wlgen", cli::command_specs());
  ASSERT_FALSE(cli::command_specs().empty());
  for (const auto& command : cli::command_specs()) {
    EXPECT_NE(usage.find("wlgen " + command.name), std::string::npos)
        << "command '" << command.name << "' missing from usage block";
    const std::string help = util::render_command_help("wlgen", command);
    for (const auto& flag : command.flags) {
      EXPECT_NE(usage.find("--" + flag.name), std::string::npos)
          << "--" << flag.name << " missing from usage block";
      EXPECT_NE(help.find("--" + flag.name), std::string::npos)
          << "--" << flag.name << " missing from 'wlgen " << command.name << " --help'";
      EXPECT_FALSE(flag.help.empty()) << "--" << flag.name << " has no help text";
    }
    // The implicit --help is part of the parser contract and the help text.
    EXPECT_TRUE(command.flag_names().count("help"));
    EXPECT_NE(help.find("--help"), std::string::npos);
  }
}

TEST(CliSpec, CommandTableCoversTheCliSurface) {
  for (const char* name : {"gds", "run", "analyze", "replay", "experiments", "scenario"}) {
    EXPECT_NO_THROW((void)cli::command_spec(name)) << name;
  }
  EXPECT_THROW((void)cli::command_spec("teleport"), std::invalid_argument);
}

TEST(CliSpec, BooleanFlagsAreDeclaredBoolean) {
  // The flags the parser must never let swallow the next token.  This is
  // the spec-level pin of the historical `experiments --check fig5_1` bug:
  // if someone re-declares one of these with a value metavar, this fails.
  const std::set<std::string>& booleans = cli::boolean_flags();
  for (const char* name :
       {"check", "list", "verbose", "contended", "verify-merge", "closed-loop", "help"}) {
    EXPECT_TRUE(booleans.count(name)) << name;
  }
  // And value-taking flags must not be in the boolean set.
  for (const char* name : {"users", "model", "threads", "print", "out"}) {
    EXPECT_FALSE(booleans.count(name)) << name;
  }
}

// --- `wlgen run` flags -> ScenarioSpec ---------------------------------------

cli::RunPlan plan_of(const std::vector<std::string>& tokens) {
  return cli::run_plan(util::Args::parse(tokens, cli::boolean_flags()));
}

/// Every RunPlan field a `run` flag can reach, as text.
std::map<std::string, std::string> fields_of(const cli::RunPlan& p) {
  const ScenarioSpec& s = p.spec;
  std::vector<std::string> users;
  for (const std::size_t u : s.user_points) users.push_back(std::to_string(u));
  const auto flag = [](bool on) { return std::string(on ? "1" : "0"); };
  const auto num = [](double v) { return (std::ostringstream() << v).str(); };
  return {{"classic", flag(p.classic)}, {"mode", to_string(s.mode)},
          {"users", util::join(users, ",")}, {"sessions", std::to_string(s.sessions)},
          {"model", s.models.at(0).name}, {"heavy", num(s.heavy_fraction)},
          {"seed", std::to_string(s.seed)}, {"markov", num(s.markov)},
          {"pattern", core::to_string(s.pattern)}, {"windows", std::to_string(s.windows)},
          {"gds", s.gds_file}, {"log", s.log_file}, {"shards", std::to_string(s.shards)},
          {"threads", std::to_string(s.threads)}, {"verify", flag(p.verify_merge)},
          {"spill", flag(s.log_spill)}, {"spool", s.log_spool_dir},
          {"checkpoint", flag(s.log_checkpoint)}, {"resume", flag(s.resume)},
          {"replications", std::to_string(s.replications)},
          {"metrics", p.options.metrics_file}, {"trace", p.options.trace_file},
          {"trace_events", std::to_string(p.options.trace_events.value_or(0))},
          {"progress", flag(p.options.progress.value_or(false))}};
}

TEST(RunFlags, EveryFlagLandsInItsSpecFieldAndNowhereElse) {
  // No flags: the classic run with the CLI's defaults.  Each case below
  // must equal these fields with exactly its listed fields changed.
  const std::map<std::string, std::string> defaults = fields_of(plan_of({}));
  EXPECT_EQ(defaults.at("classic"), "1");
  EXPECT_EQ(defaults.at("users") + " " + defaults.at("sessions") + " " + defaults.at("seed") +
                " " + defaults.at("model") + " " + defaults.at("pattern"),
            "1 50 1991 nfs sequential");

  const std::vector<std::pair<std::vector<std::string>, std::map<std::string, std::string>>>
      cases = {
          {{"--users", "7"}, {{"users", "7"}}},
          {{"--sessions", "4"}, {{"sessions", "4"}}},
          {{"--model", "local"}, {{"model", "local"}}},
          {{"--heavy", "0.25"}, {{"heavy", "0.25"}}},
          {{"--seed", "9"}, {{"seed", "9"}}},
          {{"--markov", "0.5"}, {{"markov", "0.5"}}},
          {{"--pattern", "zipf"}, {{"pattern", "zipf_block"}}},
          {{"--windows", "2"}, {{"windows", "2"}}},
          {{"--spec", "think.gds"}, {{"gds", "think.gds"}}},
          {{"--log", "a #b; c.tsv"}, {{"log", "a #b; c.tsv"}}},
          {{"--shards", "3"}, {{"classic", "0"}, {"shards", "3"}}},
          {{"--shards", "1", "--threads", "5"}, {{"classic", "0"}, {"threads", "5"}}},
          {{"--shards", "1", "--verify-merge"}, {{"classic", "0"}, {"verify", "1"}}},
          {{"--shards", "1", "--spill"},
           {{"classic", "0"}, {"spill", "1"}, {"spool", ".wlgen-spool/cli-run"}}},
          {{"--shards", "1", "--spool-dir", "d"}, {{"classic", "0"}, {"spill", "1"}, {"spool", "d"}}},
          {{"--shards", "1", "--checkpoint"},
           {{"classic", "0"}, {"spill", "1"}, {"spool", ".wlgen-spool/cli-run"},
            {"checkpoint", "1"}}},
          {{"--shards", "1", "--resume"},
           {{"classic", "0"}, {"spill", "1"}, {"spool", ".wlgen-spool/cli-run"},
            {"checkpoint", "1"}, {"resume", "1"}}},
          {{"--contended"}, {{"classic", "0"}, {"mode", "contended"}, {"users", "1,2,3,4,5,6"}}},
          {{"--contended", "--users", "3"}, {{"classic", "0"}, {"mode", "contended"}, {"users", "3"}}},
          {{"--contended", "--users-sweep", "2:6:2"},
           {{"classic", "0"}, {"mode", "contended"}, {"users", "2,4,6"}}},
          {{"--contended", "--replications", "5"},
           {{"classic", "0"}, {"mode", "contended"}, {"users", "1,2,3,4,5,6"},
            {"replications", "5"}}},
          {{"--metrics", "m.json"}, {{"metrics", "m.json"}}},
          {{"--trace", "t.json"}, {{"trace", "t.json"}}},
          {{"--trace-events", "10"}, {{"trace_events", "10"}}},
          {{"--progress"}, {{"progress", "1"}}},
      };
  std::set<std::string> covered;
  for (const auto& [tokens, changed] : cases) {
    SCOPED_TRACE(util::join(tokens, " "));
    std::map<std::string, std::string> expected = defaults;
    for (const auto& [field, value] : changed) expected[field] = value;
    EXPECT_EQ(fields_of(plan_of(tokens)), expected);
    for (const auto& token : tokens) {
      if (token.rfind("--", 0) == 0) covered.insert(token.substr(2));
    }
  }
  std::set<std::string> declared;
  for (const auto& flag : cli::command_spec("run").flags) declared.insert(flag.name);
  EXPECT_EQ(covered, declared);
}

TEST(RunFlags, AcceptSetPerRunPathIsPinnedAndRejectionsNameTheFlag) {
  // Which paths take each flag: classic (no mode flag), --shards,
  // --contended — pinned literally, so widening the run_flags table fails.
  struct Row {
    std::vector<std::string> tokens;
    bool classic, sharded, contended;
  };
  const std::vector<Row> rows = {
      {{"--users", "2"}, true, true, true},        {{"--sessions", "3"}, true, true, true},
      {{"--model", "local"}, true, true, true},    {{"--heavy", "0.5"}, true, true, true},
      {{"--seed", "5"}, true, true, true},         {{"--markov", "0.2"}, true, true, true},
      {{"--pattern", "random"}, true, true, true}, {{"--windows", "2"}, true, true, true},
      {{"--spec", "g.gds"}, true, true, true},     {{"--log", "out.tsv"}, true, true, false},
      {{"--threads", "2"}, false, true, true},     {{"--verify-merge"}, false, true, false},
      {{"--spill"}, false, true, false},           {{"--spool-dir", "d"}, false, true, false},
      {{"--checkpoint"}, false, true, false},      {{"--resume"}, false, true, false},
      {{"--users-sweep", "1:2"}, false, false, true},
      {{"--replications", "2"}, false, false, true},
      {{"--metrics", "m.json"}, true, true, true}, {{"--trace", "t.json"}, true, true, true},
      {{"--trace-events", "16"}, true, true, true}, {{"--progress"}, true, true, true},
  };
  for (const auto& row : rows) {
    for (const auto& [path, accepted] :
         {std::pair<std::vector<std::string>, bool>{{}, row.classic},
          {{"--shards", "2"}, row.sharded},
          {{"--contended"}, row.contended}}) {
      std::vector<std::string> tokens = path;
      tokens.insert(tokens.end(), row.tokens.begin(), row.tokens.end());
      SCOPED_TRACE(util::join(tokens, " "));
      try {
        (void)plan_of(tokens);
        EXPECT_TRUE(accepted) << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_FALSE(accepted) << e.what();
        EXPECT_NE(std::string(e.what()).find(row.tokens[0]), std::string::npos) << e.what();
      }
    }
  }
  EXPECT_EQ(rows.size() + 2, cli::command_spec("run").flags.size());  // + --shards, --contended
}

TEST(RunFlags, ConflictsAndBadValuesNameTheFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--contended", "--shards", "2"}, "--shards"},
      {{"--contended", "--users", "2", "--users-sweep", "1:3"}, "--users-sweep"},
      {{"stray"}, "stray"},
      {{"--heavy", "1.5"}, "--heavy 1.5"},
      {{"--model", "afs"}, "--model afs"},
      {{"--pattern", "backwards"}, "--pattern"},
      {{"--sessions", "0"}, "--sessions"},
      {{"--users", "0"},
       "--users 0: key 'workload.users' is invalid: user count expects at least 1 user"},
      {{"--users", "1:4"}, "--users"},
      {{"--shards", "0"}, "--shards"},
      {{"--markov", "1"}, "--markov"},
      {{"--windows", "0"}, "--windows"},
      {{"--seed", "-1"}, "--seed"},
      {{"--heavy", "nan"}, "--heavy nan"},
      {{"--markov", "-inf"}, "--markov -inf"},
  };
  for (const auto& [tokens, needle] : cases) {
    SCOPED_TRACE(util::join(tokens, " "));
    try {
      (void)plan_of(tokens);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace wlgen::scenario
