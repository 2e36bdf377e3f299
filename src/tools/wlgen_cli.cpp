// wlgen — command-line driver for the user-oriented synthetic workload
// generator.  Wraps the three paper components plus the analyzer, the trace
// replayer, the experiment harness and the declarative scenario subsystem.
//
// Usage text is GENERATED from the command table in tools/cli_spec.{h,cpp}
// — the same specs drive Args::require_known and the boolean-flag set, so
// the help can never drift from what the parser accepts (run `wlgen --help`
// or `wlgen <command> --help`; coverage pinned by tests/scenario_test.cpp).
//
// `run` is a front end over the scenario subsystem: tools/run_flags turns
// its flags into an in-memory ScenarioSpec.  `run --shards` and `run
// --contended` execute through scenario::run_scenario exactly as a
// `mode = sharded` / `mode = contended` `.scn` file would; without either,
// the classic path is runner::run_shared, the one shared-machine run, on
// the spec's scenario::workload_config.  `replay` is runner::replay_trace,
// the driver scenario replay mode uses, over the trace file read as a
// stream.  `run` and `replay` print their analysis from the driver's per-op
// fold; only `analyze` builds a UsageAnalyzer, folding the file as it is
// read (DESIGN.md "One path per run semantics", flag table in
// docs/SCENARIOS.md).
//
// Exit status: 0 on success, 1 on bad usage or I/O failure; `experiments
// --check` also exits 1 when any experiment's verdict is FAIL.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/log_sink.h"
#include "core/replay.h"
#include "core/spec.h"
#include "exp/harness.h"
#include "experiments.h"
#include "obs/obs.h"
#include "runner/merge.h"
#include "runner/model_factory.h"
#include "runner/pool.h"
#include "runner/universe.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "tools/cli_spec.h"
#include "tools/lint/lint_rules.h"
#include "tools/run_flags.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/svg.h"
#include "util/table.h"
#include "util/version.h"

namespace {

using namespace wlgen;
using util::Args;

int usage() {
  std::cerr << util::render_usage("wlgen", cli::command_specs());
  return 1;
}

/// The lines `run` and `scenario run` print after a report: wall time and
/// every artifact the run wrote.
std::string artifact_lines(const scenario::ScenarioSpec& spec, const obs::ObsConfig& obs,
                           const scenario::ScenarioOutcome& outcome) {
  std::ostringstream out;
  out << "\nwall: " << util::TextTable::num(outcome.wall_ms, 1) << " ms\n";
  if (!spec.log_file.empty()) out << "usage log written to " << spec.log_file << "\n";
  if (!spec.stats_file.empty()) out << "stats digest written to " << spec.stats_file << "\n";
  if (!outcome.metrics_json.empty()) out << "metrics report written to " << obs.metrics_file << "\n";
  if (!outcome.trace_json.empty()) out << "trace written to " << obs.trace_file << "\n";
  return out.str();
}

int cmd_gds(const Args& args) {
  if (args.positional.empty()) return usage();
  core::DistributionSpecifier gds;
  gds.load_spec_text(util::read_text_file(args.positional[0]));

  util::TextTable table({"name", "mean", "stddev", "spec"});
  for (const auto& name : gds.names()) {
    const auto d = gds.get(name);
    table.add_row({name, util::TextTable::num(d->mean(), 3),
                   util::TextTable::num(d->stddev(), 3), core::serialize_distribution(*d)});
  }
  std::cout << table.render();

  if (args.flags.count("plot")) {
    std::cout << "\n" << gds.render_ascii(args.get("plot", ""));
  }
  if (args.flags.count("cdf")) {
    const std::size_t points = args.count("points", 64);
    std::cout << "\n# CDF table for " << args.get("cdf", "") << "\n"
              << gds.cdf_table(args.get("cdf", ""), points).serialize();
  }
  return 0;
}

/// "mean(std)" of a summary, or "-" when it has no observations (an empty
/// log, or the access size of an op that moves no data).
std::string mean_std_or_dash(const stats::RunningSummary& summary) {
  return summary.count() ? summary.mean_std_string() : "-";
}

/// The analyzer's tables; `sessions` counts sessions with at least one record.
void print_analysis(const core::OpStats& stats, std::size_t sessions) {
  util::TextTable ops({"op", "count", "access size mean(std)", "response us mean(std)"});
  for (std::size_t op = 0; op < core::OpStats::kOps; ++op) {
    const core::OpTypeStats& s = stats.per_op[op];
    if (s.response_us.count() == 0) continue;
    ops.add_row({fsmodel::to_string(static_cast<fsmodel::FsOpType>(op)),
                 std::to_string(s.response_us.count()), mean_std_or_dash(s.access_size),
                 mean_std_or_dash(s.response_us)});
  }
  std::cout << ops.render() << "\n";

  util::TextTable summary({"metric", "value"});
  summary.add_row({"system calls", std::to_string(stats.ops())});
  summary.add_row({"sessions", std::to_string(sessions)});
  summary.add_row({"access size B mean(std)", mean_std_or_dash(stats.access_size)});
  summary.add_row({"response us mean(std)", mean_std_or_dash(stats.response_us)});
  summary.add_row({"response per byte us", util::TextTable::num(stats.response_per_byte_us(), 4)});
  std::cout << summary.render();
}

/// Classic path: one shared-machine run at the root seed, reported with
/// the backend's own counters; it keeps its log only for --log.
int run_classic(const cli::RunPlan& plan) {
  const auto start = std::chrono::steady_clock::now();
  const scenario::ScenarioSpec& spec = plan.spec;
  const obs::ObsConfig obs = scenario::resolve_obs(spec, plan.options);
  runner::WorkloadConfig workload = scenario::workload_config(spec, spec.models.front());
  workload.usim.collect_log = !spec.log_file.empty();
  runner::SharedRun run = runner::run_shared(workload, spec.user_points.front(), obs);

  std::cout << "model: " << spec.models.front().name << "  users: " << spec.user_points.front()
            << "  sessions: " << run.sessions << "  simulated: " << run.simulated_us / 1e6
            << " s\n\n";
  print_analysis(run.stats.op_stats(), run.sessions_logged);
  std::cout << "\n" << run.model_stats;
  if (!spec.log_file.empty()) {
    core::MemoryLogReader reader(run.log);
    core::write_log_file(
        reader, spec.log_file,
        runner::resolve_pool_threads(spec.threads, std::numeric_limits<std::size_t>::max()));
  }

  scenario::ScenarioOutcome outcome;
  scenario::ModelOutcome& model = outcome.models.emplace_back();
  model.model = spec.models.front().name;
  run.sample.export_into(model.registry, run.stats.op_stats());
  model.trace = std::move(run.trace);
  outcome.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  scenario::write_obs_artifacts(obs, outcome);
  std::cout << artifact_lines(spec, obs, outcome);
  return 0;
}

int cmd_run(const Args& args) {
  const cli::RunPlan plan = cli::run_plan(args);
  if (plan.classic) return run_classic(plan);

  const scenario::ScenarioOutcome outcome = scenario::run_scenario(plan.spec, plan.options);
  std::cout << outcome.report
            << artifact_lines(plan.spec, scenario::resolve_obs(plan.spec, plan.options), outcome);
  if (plan.spec.mode != scenario::RunMode::sharded) return 0;  // contended keeps no log

  // The run's per-user fold prints what the analyzer prints for its log.
  const scenario::ModelOutcome& model = outcome.models.front();
  const scenario::PointOutcome& point = model.points.front();
  std::cout << "\n";
  print_analysis(point.stats.op_stats(), point.sessions_logged);
  if (plan.verify_merge) {
    // With --log the pass that wrote the log checked its order; without it,
    // the kept runs are drained once here.
    const bool ordered = plan.spec.log_file.empty()
                             ? runner::is_merge_ordered(*core::open_spilled_log(model.log_runs))
                             : outcome.log_ordered;
    if (!ordered) {
      std::cerr << "merge contract violated: log is not (time, user) ordered\n";
      // A log that breaks the contract is not left behind as if it were good.
      std::error_code ignored;
      if (!plan.spec.log_file.empty()) std::filesystem::remove(plan.spec.log_file, ignored);
      return 1;
    }
    std::cout << "\nmerge contract verified: " << point.ops
              << " records in (time, user) order\n";
  }
  return 0;
}

/// The paper-expectation harness: runs the 25 registered figure/table
/// experiments, grades them PASS/WARN/FAIL, and writes the artifact set.
int cmd_experiments(const Args& args) {
  if (!args.positional.empty()) {
    // `experiments fig5_1` almost certainly meant `--only fig5_1`; running
    // all 25 instead would silently ignore the selection.
    throw std::invalid_argument("unexpected argument '" + args.positional.front() +
                                "' (to select experiments use --only id[,id...])");
  }
  exp::Registry& registry = exp::Registry::global();
  if (registry.size() == 0) bench::register_all_experiments(registry);

  if (args.boolean("list")) {
    util::TextTable table({"id", "paper artefact", "title"});
    for (const auto& e : registry.all()) {
      table.add_row({e.id, e.artifact.empty() ? e.id : e.artifact, e.title});
    }
    std::cout << table.render();
    return 0;
  }

  exp::HarnessOptions options;
  options.check = args.boolean("check");
  if (args.flags.count("only")) {
    for (const auto& id : util::split(args.get("only", ""), ',')) {
      if (!id.empty()) options.only.push_back(id);
    }
  }
  options.out_dir = args.get("out", "");
  options.scale = args.number("scale", 1.0);
  options.seed = static_cast<std::uint64_t>(args.count("seed", 1991));
  options.threads = args.count("threads", 0);
  options.replications = args.count("replications", 3);
  options.verbose = args.boolean("verbose");
  options.progress = args.boolean("progress");

  const exp::HarnessSummary summary = exp::run_experiments(registry, options);
  return args.boolean("check") && summary.any_fail() ? 1 : 0;
}

/// The thread budget of `analyze` and `replay`, which take no --threads:
/// every core, the cap write_log_file and the parser apply anyway.
std::size_t all_cores() {
  return runner::resolve_pool_threads(0, std::numeric_limits<std::size_t>::max());
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) return usage();
  core::TextLogReader reader(args.positional[0], all_cores());
  const core::UsageAnalyzer analyzer(reader);
  print_analysis(analyzer.op_stats(), analyzer.sessions().size());
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string& path = args.positional[0];
  const runner::ModelFactory factory = runner::model_factory_by_name(args.get("model", "nfs"));
  core::TraceReplayer::Options options;
  options.preserve_timing = !args.boolean("closed-loop");
  options.time_scale = args.number("scale", 1.0);
  const runner::TraceSource source = [&path] {
    return std::make_unique<core::TextLogReader>(path, all_cores());
  };
  // A stream whose issue times step back is read a second time, which a
  // pipe cannot be: one is loaded whole instead.
  const runner::ReplayRun run =
      std::filesystem::is_regular_file(path)
          ? runner::replay_trace(factory, source, options)
          : runner::replay_trace(factory, core::materialize(*source()), options);

  std::cout << "replayed " << run.stats.ops() << " ops ("
            << (options.preserve_timing ? "open" : "closed") << " loop) on " << run.model
            << "\n\n";
  print_analysis(run.stats.op_stats(), run.sessions_logged);
  return 0;
}

/// `wlgen scenario run <file.scn>...` executes declarative scenarios on the
/// sharded / contended / replay paths; `--list` surveys the committed
/// library, `--print` echoes a parsed spec (format: docs/SCENARIOS.md).
int cmd_scenario(const Args& args) {
  if (args.boolean("list")) {
    const std::string dir = args.get("dir", "scenarios");
    util::TextTable table({"file", "name", "mode", "models", "description"});
    for (const auto& file : scenario::scenario_files(dir)) {
      const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_file(file);
      std::vector<std::string> models;
      for (const auto& model : spec.models) models.push_back(model.name);
      table.add_row({file, spec.name, scenario::to_string(spec.mode),
                     util::join(models, ","), spec.description});
    }
    std::cout << table.render();
    return 0;
  }
  if (args.flags.count("print")) {
    std::cout << scenario::ScenarioSpec::parse_file(args.get("print", "")).summary();
    return 0;
  }
  if (args.positional.empty() || args.positional.front() != "run") {
    std::cerr << util::render_command_help("wlgen", cli::command_spec("scenario"));
    return 1;
  }
  if (args.positional.size() < 2) {
    throw std::invalid_argument("scenario run needs at least one <file.scn>");
  }

  scenario::RunOptions options;
  if (args.flags.count("threads")) options.threads = args.count("threads", 0);
  if (args.flags.count("metrics")) options.metrics_file = args.get("metrics", "");
  if (args.flags.count("trace")) options.trace_file = args.get("trace", "");
  if (args.flags.count("trace-events")) {
    options.trace_events = args.count("trace-events", 65536);
  }
  if (args.boolean("progress")) options.progress = true;
  if (args.positional.size() > 2 &&
      (!options.metrics_file.empty() || !options.trace_file.empty())) {
    // One override path cannot hold several scenarios' artifacts; the files
    // would silently clobber each other.
    throw std::invalid_argument(
        "--metrics/--trace override a single output file; run one scenario at a "
        "time or set per-scenario obs.metrics/obs.trace keys instead");
  }

  // Parse every spec up front so a bad file fails before any run starts,
  // then fan the files over the worker pool.  Per-file console output is
  // buffered into per-index slots and printed in argument order, so stdout
  // is byte-identical to the old serial loop for any thread count.
  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    specs.push_back(scenario::ScenarioSpec::parse_file(args.positional[i]));
  }

  const std::size_t total_threads = runner::resolve_pool_threads(
      options.threads.value_or(0), std::numeric_limits<std::size_t>::max());
  const std::size_t outer = std::min(total_threads, specs.size());
  scenario::RunOptions per_file = options;
  if (specs.size() > 1) {
    // Multi-file runs divide the thread budget between the files in flight;
    // run_scenario subdivides each file's share across the spec's backends
    // (docs/SCENARIOS.md "Parallelism and --threads").
    per_file.threads = std::max<std::size_t>(1, total_threads / std::max<std::size_t>(1, outer));
  }

  std::vector<std::string> reports(specs.size());
  runner::drain_pool(specs.size(), outer, [&]() -> runner::PoolJob {
    return [&](std::size_t index, const std::atomic<bool>& /*cancelled*/) {
      const scenario::ScenarioSpec& spec = specs[index];
      const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, per_file);
      reports[index] = outcome.report + artifact_lines(spec, scenario::resolve_obs(spec, options),
                                                       outcome);
    };
  });
  for (std::size_t i = 0; i < reports.size(); ++i) {
    std::cout << reports[i];
    if (i + 1 < reports.size()) std::cout << "\n";
  }
  return 0;
}

/// `wlgen lint` — the determinism linter (DESIGN.md "Correctness tooling").
/// Exit 0 on a clean tree, 1 with file:line diagnostics on any violation.
int cmd_lint(const Args& args) {
  if (!args.positional.empty()) {
    throw std::invalid_argument("unexpected argument '" + args.positional.front() +
                                "' (lint takes only --flags; the tree is --root)");
  }
  if (args.boolean("rules")) {
    std::cout << lint::render_rule_table();
    return 0;
  }
  return lint::run_lint(args.get("root", "src"), lint::default_rules());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::cout << util::render_usage("wlgen", cli::command_specs());
    return 0;
  }
  bool known_command = false;
  for (const auto& spec : cli::command_specs()) known_command |= spec.name == command;
  if (!known_command) return usage();

  try {
    // Inside the try: parse itself can throw (e.g. `--contended=1` gives a
    // boolean flag a value) and must exit 1 with a message, not abort.
    const Args args = Args::parse(argc, argv, 2, cli::boolean_flags());
    const util::CommandSpec& spec = cli::command_spec(command);
    if (args.boolean("help")) {
      std::cout << util::render_command_help("wlgen", spec);
      return 0;
    }
    args.require_known(spec.flag_names());
    if (command == "gds") return cmd_gds(args);
    if (command == "run") return cmd_run(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "experiments") return cmd_experiments(args);
    if (command == "scenario") return cmd_scenario(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "version") {
      std::cout << util::version_line() << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "wlgen " << command << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
