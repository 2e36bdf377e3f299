// wlgen — command-line driver for the user-oriented synthetic workload
// generator.  Wraps the three paper components plus the analyzer, the trace
// replayer, the experiment harness and the declarative scenario subsystem.
//
// Usage text is GENERATED from the command table in tools/cli_spec.{h,cpp}
// — the same specs drive Args::require_known and the boolean-flag set, so
// the help can never drift from what the parser accepts (run `wlgen --help`
// or `wlgen <command> --help`; coverage pinned by tests/scenario_test.cpp).
//
// `run --shards` routes through runner::ShardedRunner (independent user
// universes, merged deterministically — DESIGN.md "Sharded runner");
// `run --contended` routes through runner::ContendedRunner (shared-machine
// sweep — DESIGN.md "Contended runner"); without either the classic
// shared-machine single-Simulation path runs.  `scenario run` compiles
// declarative `.scn` files onto the same paths (DESIGN.md "Scenario
// subsystem", reference in docs/SCENARIOS.md).
//
// Exit status: 0 on success, 1 on bad usage or I/O failure; `experiments
// --check` also exits 1 when any experiment's verdict is FAIL.

#include <atomic>
#include <chrono>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/replay.h"
#include "core/spec.h"
#include "core/usim.h"
#include "exp/harness.h"
#include "experiments.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "runner/contended_runner.h"
#include "runner/pool.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "tools/cli_spec.h"
#include "tools/lint/lint_rules.h"
#include "util/args.h"
#include "util/ascii_plot.h"
#include "util/json.h"
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

std::unique_ptr<fsmodel::FileSystemModel> make_model(const std::string& name,
                                                     sim::Simulation& simulation) {
  // One nfs|local|wholefile dispatch table for both CLI paths.
  return runner::model_factory_by_name(name)(simulation);
}

/// The `run` command's --metrics/--trace/--trace-events/--progress flags as
/// an ObsConfig (everything off when none are given).
obs::ObsConfig obs_from_args(const Args& args, const std::string& label) {
  obs::ObsConfig obs;
  obs.metrics_file = args.get("metrics", "");
  obs.trace_file = args.get("trace", "");
  obs.trace_events = args.count("trace-events", 65536);
  obs.progress = args.boolean("progress");
  obs.label = label;
  return obs;
}

/// Writes the --metrics / --trace artifacts of one labelled run.
void write_obs_artifacts(const obs::ObsConfig& obs, const obs::Registry& registry,
                         const obs::RunTrace& trace, double wall_ms) {
  if (obs.metrics()) {
    util::JsonValue doc = obs::metrics_document(obs.label, wall_ms);
    obs::add_metrics_group(doc, obs.label, registry);
    util::write_text_file(obs.metrics_file, doc.dump());
    std::cout << "metrics report written to " << obs.metrics_file << "\n";
  }
  if (obs.trace()) {
    util::write_text_file(obs.trace_file,
                          obs::chrome_trace_json(obs::run_trace_groups(obs.label, trace)));
    std::cout << "trace written to " << obs.trace_file << "\n";
  }
}

/// One-line pool utilization summary (collected only when obs is on).
void print_pool_utilization(const runner::PoolObs& pool) {
  if (pool.workers.empty()) return;
  const double busy = static_cast<double>(pool.busy_ns());
  const double total = busy + static_cast<double>(pool.idle_ns());
  std::cout << "pool: " << pool.workers.size() << " workers, " << pool.jobs() << " jobs, "
            << util::TextTable::num(total > 0.0 ? 100.0 * busy / total : 0.0, 1)
            << "% busy\n";
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

void print_analysis(core::LogReader& reader) {
  const core::UsageAnalyzer analyzer(reader);
  util::TextTable ops({"op", "count", "access size mean(std)", "response us mean(std)"});
  for (const auto& [op, s] : analyzer.per_op_stats()) {
    ops.add_row({fsmodel::to_string(op), std::to_string(s.response_us.count()),
                 s.access_size.count() ? s.access_size.mean_std_string() : "-",
                 s.response_us.mean_std_string()});
  }
  std::cout << ops.render() << "\n";

  util::TextTable summary({"metric", "value"});
  summary.add_row({"system calls", std::to_string(analyzer.op_count())});
  summary.add_row({"sessions", std::to_string(analyzer.sessions().size())});
  summary.add_row(
      {"access size B mean(std)",
       analyzer.access_size_stats().count() ? analyzer.access_size_stats().mean_std_string() : "-"});
  summary.add_row({"response us mean(std)", analyzer.response_stats().mean_std_string()});
  summary.add_row(
      {"response per byte us", util::TextTable::num(analyzer.response_per_byte_us(), 4)});
  std::cout << summary.render();
}

void print_analysis(const core::UsageLog& log) {
  core::MemoryLogReader reader(log);
  print_analysis(reader);
}

/// Sharded path: K independent Simulation shards on a worker pool, merged
/// deterministically (bit-identical for any --shards/--threads choice).
int cmd_run_sharded(const Args& args, std::size_t users, std::size_t sessions,
                    std::uint64_t seed, core::Population population,
                    core::UsimConfig usim_config) {
  runner::RunnerConfig config;
  config.num_users = users;
  config.shards = args.count("shards", 1);
  config.threads = args.count("threads", 0);
  config.seed = seed;
  config.usim = std::move(usim_config);
  config.usim.sessions_per_user = sessions;
  config.population = std::move(population);
  config.model_factory = runner::model_factory_by_name(args.get("model", "nfs"));
  config.obs = obs_from_args(args, "run --shards");

  // Spill flags imply each other upward: --resume needs checkpoints, and
  // --checkpoint/--spool-dir only mean anything with spilling on.
  const bool checkpoint = args.boolean("checkpoint") || args.boolean("resume");
  if (args.boolean("spill") || args.flags.count("spool-dir") || checkpoint) {
    config.spill.enabled = true;
    config.spill.spool_dir = args.get("spool-dir", ".wlgen-spool/cli-run");
    config.spill.checkpoint = checkpoint;
    config.spill.resume = args.boolean("resume");
    config.spill.config_tag = "cli model=" + args.get("model", "nfs") + " heavy=" +
                              args.get("heavy", "1") + " markov=" + args.get("markov", "-1") +
                              " pattern=" + args.get("pattern", "seq");
  }

  runner::ShardedRunner run(std::move(config));
  const runner::RunnerResult result = run.run();

  std::cout << "model: " << args.get("model", "nfs") << "  users: " << users << "  shards: "
            << result.shards.size() << "  sessions: " << result.sessions_completed
            << "  longest user timeline: " << result.max_simulated_us / 1e6 << " s  wall: "
            << result.wall_ms << " ms\n\n";

  util::TextTable shards({"shard", "users", "syscalls", "events", "wall ms"});
  for (const auto& s : result.shards) {
    shards.add_row({std::to_string(s.shard),
                    std::to_string(s.range.begin) + ".." + std::to_string(s.range.end),
                    std::to_string(s.ops), std::to_string(s.events),
                    util::TextTable::num(s.wall_ms, 1)});
  }
  std::cout << shards.render() << "\n";
  if (!result.spilled_runs.empty()) {
    std::uint64_t spilled_bytes = 0;
    std::uint64_t spilled_records = 0;
    for (const auto& r : result.spilled_runs) {
      spilled_bytes += r.bytes;
      spilled_records += r.records;
    }
    std::cout << "spill: " << spilled_records << " records in " << result.spilled_runs.size()
              << " sorted runs (" << util::TextTable::num(spilled_bytes / (1024.0 * 1024.0), 1)
              << " MiB) under " << run.config().spill.spool_dir << "\n";
    if (run.config().spill.checkpoint) {
      std::cout << "checkpoints: " << result.checkpoints_written << " written, "
                << result.shards_resumed << " shard(s) resumed\n";
    }
    std::cout << "\n";
  }
  {
    // Uniform analysis path: a k-way merge cursor over the spilled runs, or
    // a cursor over the in-RAM log — identical streams either way.
    auto reader = result.open_log_reader();
    print_analysis(*reader);
  }

  if (args.boolean("verify-merge")) {
    auto reader = result.open_log_reader();
    if (!runner::is_merge_ordered(*reader)) {
      std::cerr << "merge contract violated: log is not (time, user) ordered\n";
      return 1;
    }
    std::cout << "\nmerge contract verified: " << result.total_ops
              << " records in (time, user) order\n";
  }
  if (args.flags.count("log")) {
    auto reader = result.open_log_reader();
    core::write_log_file(*reader, args.get("log", ""));
    std::cout << "\nusage log written to " << args.get("log", "") << "\n";
  }
  if (run.config().obs.collect()) {
    std::cout << "\n";
    print_pool_utilization(result.pool);
    write_obs_artifacts(run.config().obs, result.registry, result.trace, result.wall_ms);
  }
  return 0;
}

/// Contended path: one shared-machine Simulation per (load point x
/// replication) job, fanned out over the worker pool and merged
/// deterministically (bit-identical for any --threads choice).
int cmd_run_contended(const Args& args, std::size_t sessions, std::uint64_t seed,
                      core::Population population, core::UsimConfig usim_config) {
  if (args.flags.count("log")) {
    throw std::invalid_argument(
        "--contended collects cross-replication aggregates only (no merged usage log); "
        "drop --log or use the classic/sharded paths");
  }
  if (args.boolean("verify-merge")) {
    throw std::invalid_argument(
        "--verify-merge checks the sharded runner's merged log; contended runs have no "
        "merged log (thread-invariance is pinned by runner_test instead)");
  }
  if (args.flags.count("users") && args.flags.count("users-sweep")) {
    throw std::invalid_argument("--users and --users-sweep are both load-point selectors; "
                                "pick one");
  }
  if (args.boolean("spill") || args.boolean("checkpoint") || args.boolean("resume") ||
      args.flags.count("spool-dir")) {
    throw std::invalid_argument(
        "--spill/--spool-dir/--checkpoint/--resume belong to the sharded runner's "
        "streamed log; contended runs keep no log (use --shards)");
  }
  runner::ContendedConfig config;
  // Explicit --users N without a sweep runs that single load point.
  const std::string default_sweep =
      args.flags.count("users") && !args.flags.count("users-sweep")
          ? args.get("users", "1")
          : "1:6:1";
  config.user_points = scenario::parse_user_sweep(args.get("users-sweep", default_sweep));
  config.replications = args.count("replications", 3);
  config.threads = args.count("threads", 0);
  config.seed = seed;
  config.usim = std::move(usim_config);
  config.usim.sessions_per_user = sessions;
  config.population = std::move(population);
  config.model_factory = runner::model_factory_by_name(args.get("model", "nfs"));
  config.obs = obs_from_args(args, "run --contended");

  runner::ContendedRunner run(std::move(config));
  const runner::ContendedResult result = run.run();

  std::cout << "model: " << args.get("model", "nfs") << "  contended sweep: "
            << result.points.size() << " load points x " << run.config().replications
            << " replications  syscalls: " << result.total_ops << "  wall: " << result.wall_ms
            << " ms\n\n";

  util::TextTable points({"users", "us/byte (pooled)", "mean +/- ci95", "response us mean(std)",
                          "syscalls", "sessions"});
  for (const auto& p : result.points) {
    points.add_row({std::to_string(p.users),
                    util::TextTable::num(p.stats.response_per_byte_us(), 4),
                    util::TextTable::num(p.response_per_byte.mean, 4) + " +/- " +
                        util::TextTable::num(p.response_per_byte.half_width, 4),
                    p.stats.response_us().mean_std_string(),
                    std::to_string(p.total_ops), std::to_string(p.sessions_completed)});
  }
  std::cout << points.render();
  if (run.config().obs.collect()) {
    std::cout << "\n";
    print_pool_utilization(result.pool);
    write_obs_artifacts(run.config().obs, result.registry, result.trace, result.wall_ms);
  }
  return 0;
}

int cmd_run(const Args& args) {
  if (!args.positional.empty()) {
    throw std::invalid_argument("unexpected argument '" + args.positional.front() +
                                "' (run takes only --flags)");
  }
  const std::size_t users = args.count("users", 1);
  const std::size_t sessions = args.count("sessions", 50);
  const auto seed = static_cast<std::uint64_t>(args.count("seed", 1991));
  const double heavy = args.number("heavy", 1.0);

  core::Population population = core::mixed_population(heavy);
  if (args.flags.count("spec")) {
    // Override think time / access size from a GDS spec file when present.
    core::DistributionSpecifier gds;
    gds.load_spec_text(util::read_text_file(args.get("spec", "")));
    core::apply_gds_overrides(population, gds);
  }

  core::UsimConfig config;
  config.num_users = users;
  config.sessions_per_user = sessions;
  config.seed = seed;
  config.markov_persistence = args.number("markov", -1.0);
  config.windows_per_user = args.count("windows", 1);
  const std::string pattern = args.get("pattern", "seq");
  if (pattern == "random") {
    config.pattern = core::AccessPattern::uniform_random;
  } else if (pattern == "zipf") {
    config.pattern = core::AccessPattern::zipf_block;
  } else if (pattern != "seq") {
    throw std::invalid_argument("unknown pattern '" + pattern + "' (seq|random|zipf)");
  }

  if (args.boolean("contended")) {
    if (args.flags.count("shards")) {
      throw std::invalid_argument("--contended and --shards are different run modes "
                                  "(see DESIGN.md); pick one");
    }
    return cmd_run_contended(args, sessions, seed, std::move(population), std::move(config));
  }
  if (args.flags.count("shards")) {
    return cmd_run_sharded(args, users, sessions, seed, std::move(population),
                           std::move(config));
  }
  if (args.flags.count("threads") || args.boolean("verify-merge") ||
      args.flags.count("replications") || args.flags.count("users-sweep") ||
      args.boolean("spill") || args.flags.count("spool-dir") ||
      args.boolean("checkpoint") || args.boolean("resume")) {
    // Guard against silently switching semantics: the classic path is one
    // shared-machine Simulation; parallel execution exists only under the
    // sharded or contended runner models.
    throw std::invalid_argument(
        "--threads/--verify-merge/--spill/--spool-dir/--checkpoint/--resume require "
        "--shards, and --replications/--users-sweep require --contended (see DESIGN.md)");
  }

  // Classic-path observability: the merged log survives the run, so metrics
  // and op spans are tallied post-hoc from it; only model-stage spans (the
  // thread-local trace slot) and the heartbeat hook in live.
  const auto wall_start = std::chrono::steady_clock::now();
  const obs::ObsConfig obs_cfg = obs_from_args(args, "run");
  obs::RunTrace run_trace;
  if (obs_cfg.trace()) {
    const std::size_t share = obs::ring_share(obs_cfg.trace_events / 2, 1);
    run_trace.ops = obs::TraceRing(share);
    run_trace.stages = obs::TraceRing(share);
  }
  obs::ScopedStageTrace stage_trace(obs_cfg.trace() ? &run_trace.stages : nullptr);
  std::unique_ptr<obs::ProgressReporter> progress;
  if (obs_cfg.progress) {
    obs::ProgressReporter::Options popt;
    popt.label = "run";
    popt.unit = "ops";
    progress = std::make_unique<obs::ProgressReporter>(std::move(popt));
    config.on_record = [&progress](const core::OpRecord& record) {
      progress->advance(1, 0, 0.0);
      progress->note_sim_time(record.issue_time_us + record.response_us);
    };
  }

  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&simulation] { return simulation.now(); });
  auto model = make_model(args.get("model", "nfs"), simulation);

  core::FscConfig fsc_config;
  fsc_config.num_users = users;
  fsc_config.seed = seed;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();

  core::UserSimulator usim(simulation, fsys, *model, manifest, population, config);
  usim.run();
  if (progress) progress->stop();

  std::cout << "model: " << model->name() << "  users: " << users << "  sessions: "
            << usim.sessions_completed() << "  simulated: " << simulation.now() / 1e6
            << " s\n\n";
  print_analysis(usim.log());
  std::cout << "\n" << model->stats_summary();

  if (args.flags.count("log")) {
    core::MemoryLogReader reader(usim.log());
    core::write_log_file(reader, args.get("log", ""));
    std::cout << "\nusage log written to " << args.get("log", "") << "\n";
  }
  if (obs_cfg.collect()) {
    obs::SimSample sample;
    sample.sim_events = simulation.events_processed();
    sample.heap_high_water = simulation.arena_high_water();
    sample.rng_draws = usim.rng_draws();
    sample.sessions = usim.sessions_completed();
    for (const auto& record : usim.log().records()) {
      sample.ops.add(record);
      if (obs_cfg.trace()) obs::record_op(run_trace.ops, record);
    }
    obs::Registry registry;
    sample.export_into(registry);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
    std::cout << "\n";
    write_obs_artifacts(obs_cfg, registry, run_trace, wall_ms);
  }
  return 0;
}

/// The paper-expectation harness: runs the 23 registered figure/table
/// experiments, grades them PASS/WARN/FAIL, and writes the artifact set.
int cmd_experiments(const Args& args) {
  if (!args.positional.empty()) {
    // `experiments fig5_1` almost certainly meant `--only fig5_1`; running
    // all 23 instead would silently ignore the selection.
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

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) return usage();
  const core::UsageLog log = core::read_log_file(args.positional[0]);
  print_analysis(log);
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.positional.empty()) return usage();
  const core::UsageLog trace = core::read_log_file(args.positional[0]);

  sim::Simulation simulation;
  auto model = make_model(args.get("model", "nfs"), simulation);
  core::TraceReplayer replayer(simulation, *model, trace);
  core::TraceReplayer::Options options;
  options.preserve_timing = !args.boolean("closed-loop");
  options.time_scale = args.number("scale", 1.0);
  const core::UsageLog replayed = replayer.run(options);

  std::cout << "replayed " << replayer.ops_replayed() << " ops ("
            << (options.preserve_timing ? "open" : "closed") << " loop) on " << model->name()
            << "\n\n";
  print_analysis(replayed);
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
      std::ostringstream out;
      out << outcome.report << "\nwall: " << util::TextTable::num(outcome.wall_ms, 1)
          << " ms\n";
      if (!spec.log_file.empty()) out << "usage log written to " << spec.log_file << "\n";
      if (!spec.stats_file.empty()) {
        out << "stats digest written to " << spec.stats_file << "\n";
      }
      if (!outcome.metrics_json.empty()) {
        out << "metrics report written to "
            << (options.metrics_file.empty() ? spec.obs_metrics : options.metrics_file)
            << "\n";
      }
      if (!outcome.trace_json.empty()) {
        out << "trace written to "
            << (options.trace_file.empty() ? spec.obs_trace : options.trace_file) << "\n";
      }
      reports[index] = out.str();
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
