#include "scenario/run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/log_sink.h"
#include "core/replay.h"
#include "runner/contended_runner.h"
#include "runner/pool.h"
#include "runner/sharded_runner.h"
#include "runner/universe.h"
#include "util/rng.h"
#include "util/svg.h"
#include "util/table.h"

namespace wlgen::scenario {

namespace {

/// Shortest exact decimal text of a double: equal bits => equal text, so
/// digests built from it inherit the runners' bit-identical merge
/// guarantee.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Scenario-level identity folded into checkpoint fingerprints: everything
/// that shapes the record streams but is invisible to RunnerConfig's own
/// fingerprint fields (model + overrides, population shape, behaviour
/// switches, the GDS file's path and a hash of its bytes).  Single line —
/// the checkpoint format is line-based.
std::string spill_config_tag(const ScenarioSpec& spec, const ModelChoice& model) {
  std::ostringstream tag;
  tag << "model=" << model.name;
  for (const auto& o : model.overrides) tag << "," << o.key << "=" << exact(o.value);
  tag << " heavy=" << exact(spec.heavy_fraction)
      << " pattern=" << static_cast<int>(spec.pattern) << " markov=" << exact(spec.markov)
      << " think=" << spec.think_time << " access=" << spec.access_size
      << " gds=" << spec.gds_file;
  if (!spec.gds_file.empty()) {
    tag << " gds_fnv1a=" << std::hex << util::hash_label(util::read_text_file(spec.gds_file))
        << std::dec;
  }
  // Traffic identity (arrivals + faults): appended only when configured so
  // pre-traffic checkpoints keep validating.
  if (spec.traffic.any()) tag << " " << spec.traffic.tag();
  return tag.str();
}

ModelOutcome run_sharded(const ScenarioSpec& spec, const ModelChoice& model,
                         std::size_t threads, const obs::ObsConfig& obs) {
  runner::RunnerConfig config{workload_config(spec, model)};
  config.num_users = spec.user_points.front();
  config.shards = spec.shards;
  config.threads = threads;
  config.collect_log = spec.collect_log;
  config.obs = obs;
  if (spec.log_spill) {
    config.spill.enabled = true;
    // Multi-model scenarios get one spool subdirectory per backend so their
    // run/checkpoint files never collide.
    config.spill.spool_dir = spec.models.size() > 1
                                 ? spec.log_spool_dir + "/" + model.name
                                 : spec.log_spool_dir;
    config.spill.checkpoint = spec.log_checkpoint;
    config.spill.resume = spec.resume;
    config.spill.config_tag = spill_config_tag(spec, model);
  }

  runner::ShardedRunner run(std::move(config));
  runner::RunnerResult result = run.run();

  ModelOutcome outcome;
  outcome.model = model.name;
  PointOutcome point;
  point.users = spec.user_points.front();
  point.stats = result.stats;
  point.response_per_byte = {result.stats.response_per_byte_us(), 0.0, 1};
  point.ops = result.total_ops;
  point.sessions = result.sessions_completed;
  point.sessions_logged = result.sessions_logged;
  outcome.points.push_back(std::move(point));
  outcome.log_runs = std::move(result.log_runs);
  outcome.response_sketch = result.response_sketch;
  outcome.registry = std::move(result.registry);
  outcome.trace = std::move(result.trace);
  return outcome;
}

ModelOutcome run_contended(const ScenarioSpec& spec, const ModelChoice& model,
                           std::size_t threads, const obs::ObsConfig& obs) {
  runner::ContendedConfig config{workload_config(spec, model)};
  config.user_points = spec.user_points;
  config.replications = spec.replications;
  config.threads = threads;
  config.confidence = spec.confidence;
  config.obs = obs;

  runner::ContendedRunner run(std::move(config));
  runner::ContendedResult result = run.run();

  ModelOutcome outcome;
  outcome.model = model.name;
  for (const auto& p : result.points) {
    PointOutcome point;
    point.users = p.users;
    point.stats = p.stats;
    point.response_per_byte = p.response_per_byte;
    point.ops = p.total_ops;
    point.sessions = p.sessions_completed;
    outcome.points.push_back(std::move(point));
  }
  outcome.registry = std::move(result.registry);
  outcome.trace = std::move(result.trace);
  return outcome;
}

/// The shape of a trace replay mode recorded itself.
struct RecordedTrace {
  std::size_t users = 0;
  std::uint64_t sessions = 0;  ///< logins the recording run completed
};

/// Replays the trace on `model`: `trace_file` streamed when it is set,
/// else `trace`.  The replayed log is kept, as the outcome's one memory
/// run, only with `keep_log` (the scenario writes it: one model).
ModelOutcome run_replay(const ScenarioSpec& spec, const ModelChoice& model,
                        const core::UsageLog& trace, const runner::TraceSource& trace_file,
                        const std::optional<RecordedTrace>& recorded,
                        const obs::ObsConfig& obs, bool keep_log) {
  ModelOutcome outcome;
  outcome.model = model.name;

  // The replay and synthetic legs split the trace budget; the synthetic
  // leg's rings are appended after the replay leg's, so the shares sum
  // back to the budget.
  obs::ObsConfig leg_obs = obs;
  leg_obs.trace_events = obs::ring_share(obs.trace_events, spec.synthetic_users > 0 ? 2 : 1);
  core::TraceReplayer::Options options;
  options.preserve_timing = !spec.closed_loop;
  options.time_scale = spec.time_scale;
  runner::ReplayRun replay;
  try {
    replay = trace_file
                 ? runner::replay_trace(model.factory(), trace_file, options, leg_obs, keep_log)
                 : runner::replay_trace(model.factory(), trace, options, leg_obs, keep_log);
  } catch (const core::TimeScaleError& e) {
    // The scale is the scenario's: name the line that set it.
    if (spec.time_scale_line == 0) throw;
    throw std::invalid_argument(spec.origin + ":" + std::to_string(spec.time_scale_line) + ": " +
                                e.what());
  }

  PointOutcome replay_point;
  replay_point.label = spec.closed_loop ? "trace replay (closed loop)"
                                        : "trace replay (open loop)";
  // A loaded trace's shape comes from the replay's own pass over it.
  replay_point.users = recorded ? recorded->users : replay.users;
  replay_point.sessions = recorded ? recorded->sessions : replay.sessions_logged;
  replay_point.stats = std::move(replay.stats);
  replay_point.response_per_byte = {replay_point.stats.response_per_byte_us(), 0.0, 1};
  replay_point.ops = replay_point.stats.ops();
  obs::SimSample merged = replay.sample;
  merged.sessions = replay_point.sessions;
  outcome.points.push_back(std::move(replay_point));
  outcome.trace = std::move(replay.trace);
  if (keep_log) {
    // One run: the merge passes it through, so the replayed order is kept.
    outcome.log_runs.push_back(core::memory_run(std::move(replay.log.records_mutable())));
  }

  if (spec.synthetic_users > 0) {
    // The paper's section 2.1 contrast: the generator can answer the
    // "what about N users?" question the trace cannot.
    runner::WorkloadConfig workload = workload_config(spec, model);
    workload.usim.collect_log = false;  // only its statistics are reported
    runner::SharedRun synthetic = runner::run_shared(workload, spec.synthetic_users, leg_obs);
    merged.merge(synthetic.sample);
    outcome.trace.ops.append(synthetic.trace.ops);
    outcome.trace.stages.append(synthetic.trace.stages);
    PointOutcome point;
    point.label = "synthetic";
    point.users = spec.synthetic_users;
    point.stats = std::move(synthetic.stats);
    point.response_per_byte = {point.stats.response_per_byte_us(), 0.0, 1};
    point.ops = point.stats.ops();
    point.sessions = synthetic.sessions;
    outcome.points.push_back(std::move(point));
  }
  if (obs.collect()) {
    core::OpStats ops;  // the replayed log, then the synthetic leg
    for (const PointOutcome& point : outcome.points) ops.merge(point.stats.op_stats());
    merged.export_into(outcome.registry, ops);
  }
  return outcome;
}

void append_digest(std::ostringstream& out, const ModelOutcome& model) {
  out << "model " << model.model << "\n";
  for (const auto& p : model.points) {
    out << "point users=" << p.users;
    if (!p.label.empty()) out << " label=\"" << p.label << "\"";
    out << " ops=" << p.ops << " sessions=" << p.sessions << " bytes="
        << p.stats.bytes_moved() << "\n";
    const auto& r = p.stats.response_us();
    out << "  response_us count=" << r.count() << " mean=" << exact(r.mean())
        << " stddev=" << exact(r.stddev()) << " min=" << exact(r.min())
        << " max=" << exact(r.max()) << "\n";
    const auto& a = p.stats.access_size();
    out << "  access_size count=" << a.count() << " mean=" << exact(a.mean())
        << " stddev=" << exact(a.stddev()) << "\n";
    out << "  response_per_byte pooled=" << exact(p.stats.response_per_byte_us())
        << " mean=" << exact(p.response_per_byte.mean)
        << " ci_half=" << exact(p.response_per_byte.half_width) << "\n";
  }
  // Sharded runs also pin the bounded-memory sketch: integer bucket counts,
  // so the quantiles are exact and identical for every shard/thread count
  // and for spill on vs off.
  if (model.response_sketch.count() > 0) {
    const auto& sketch = model.response_sketch;
    out << "  response_sketch count=" << sketch.count()
        << " p50=" << exact(sketch.quantile(0.50)) << " p90=" << exact(sketch.quantile(0.90))
        << " p99=" << exact(sketch.quantile(0.99)) << "\n";
  }
}

std::string render_report(const ScenarioSpec& spec, const std::vector<ModelOutcome>& models) {
  std::ostringstream out;
  out << "scenario: " << spec.name << "  (mode: " << to_string(spec.mode) << ", seed: "
      << spec.seed << ")\n";
  if (!spec.description.empty()) out << spec.description << "\n";
  out << "\n";

  // Label the interval with the level the scenario configured (0.90/0.95/0.99).
  const std::string ci_header =
      "mean +/- ci" + std::to_string(static_cast<int>(spec.confidence * 100.0 + 0.5));
  for (const auto& model : models) {
    out << "--- model: " << model.model << " ---\n";
    util::TextTable table({"point", "users", "us/byte", ci_header,
                           "response us mean(std)", "syscalls", "sessions"});
    for (const auto& p : model.points) {
      table.add_row({p.label.empty() ? "-" : p.label, std::to_string(p.users),
                     util::TextTable::num(p.stats.response_per_byte_us(), 4),
                     util::TextTable::num(p.response_per_byte.mean, 4) + " +/- " +
                         util::TextTable::num(p.response_per_byte.half_width, 4),
                     p.stats.response_us().mean_std_string(), std::to_string(p.ops),
                     std::to_string(p.sessions)});
    }
    out << table.render() << "\n";
  }

  if (models.size() > 1) {
    // Cross-backend comparison over the last (largest) point — the paper's
    // section 5.3 "compare" step.
    util::TextTable compare({"model", "us/byte", "mean resp us", "syscalls"});
    for (const auto& model : models) {
      const auto& p = model.points.back();
      compare.add_row({model.model, util::TextTable::num(p.stats.response_per_byte_us(), 4),
                       util::TextTable::num(p.stats.response_us().mean(), 0),
                       std::to_string(p.ops)});
    }
    out << "--- comparison (final point) ---\n" << compare.render();
  }
  return out.str();
}

}  // namespace

runner::WorkloadConfig workload_config(const ScenarioSpec& spec, const ModelChoice& model) {
  runner::WorkloadConfig workload;
  workload.seed = spec.seed;
  workload.usim = spec.usim_config();
  workload.population = spec.population();
  workload.model_factory = model.factory();
  workload.traffic = spec.traffic;
  return workload;
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  const auto start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
  const std::size_t threads = options.threads.value_or(spec.threads);

  ScenarioOutcome outcome;

  // Per-model obs slices: each backend gets a labelled copy with an equal
  // share of the trace-ring budget (the shares sum to the run budget, so
  // merging never evicts).
  const obs::ObsConfig effective_obs = resolve_obs(spec, options);
  std::vector<obs::ObsConfig> model_obs(spec.models.size(), effective_obs);
  for (std::size_t m = 0; m < spec.models.size(); ++m) {
    model_obs[m].label = spec.name + "/" + spec.models[m].name;
    model_obs[m].trace_events =
        obs::ring_share(effective_obs.trace_events, spec.models.size());
  }

  const std::size_t total_threads =
      runner::resolve_pool_threads(threads, std::numeric_limits<std::size_t>::max());

  // Independent backends fan out over the worker pool.  Each job writes its
  // ModelOutcome to a per-index slot and the digest is folded in spec order
  // below, so the digest is bit-identical for any --threads: every backend's
  // own result is already thread-invariant (the runners' merge contracts),
  // and the fold order never depends on completion order.  The thread budget
  // splits across the two levels — `outer` backends in flight, each running
  // its internal runner pool with an equal share of the remainder — so a
  // multi-model scenario never oversubscribes the requested thread count.
  const std::size_t outer = std::min(total_threads, spec.models.size());
  const std::size_t inner = std::max<std::size_t>(1, total_threads / std::max<std::size_t>(1, outer));

  // Replay mode replays identical input on every backend.  A trace recorded
  // on the first model is held and shared.  An open-loop replay of a trace
  // file reads it through each backend's own cursor, so it is never held
  // whole.  Closed loop loads its trace anyway, and a pipe cannot be read
  // twice: those are loaded once and shared.
  core::UsageLog trace;
  runner::TraceSource trace_file;
  std::optional<RecordedTrace> recorded;
  if (spec.mode == RunMode::replay) {
    if (spec.trace_file.empty()) {
      const std::size_t users = spec.user_points.front();
      runner::SharedRun run = runner::run_shared(workload_config(spec, spec.models.front()), users);
      trace = std::move(run.log);
      recorded = RecordedTrace{users, run.sessions};
    } else {
      const std::string& path = spec.trace_file;
      if (!spec.closed_loop && std::filesystem::is_regular_file(path)) {
        trace_file = [&spec, inner] {
          return std::make_unique<core::TextLogReader>(spec.trace_file, inner);
        };
        core::OpRecord first;
        if (!core::TextLogReader(path, 1).next(first)) {
          throw std::invalid_argument(path + ": no records to replay");
        }
      } else {
        trace = core::read_log_file(path, total_threads);
        if (trace.empty()) throw std::invalid_argument(path + ": no records to replay");
      }
    }
  }

  outcome.models.resize(spec.models.size());
  runner::drain_pool(spec.models.size(), outer, [&]() -> runner::PoolJob {
    return [&](std::size_t index, const std::atomic<bool>& /*cancelled*/) {
      const ModelChoice& model = spec.models[index];
      switch (spec.mode) {
        case RunMode::sharded:
          outcome.models[index] = run_sharded(spec, model, inner, model_obs[index]);
          break;
        case RunMode::contended:
          outcome.models[index] = run_contended(spec, model, inner, model_obs[index]);
          break;
        case RunMode::replay:
          outcome.models[index] =
              run_replay(spec, model, trace, trace_file, recorded, model_obs[index],
                         spec.collect_log);
          break;
      }
    };
  });

  std::ostringstream digest;
  digest << "scenario " << spec.name << " mode=" << to_string(spec.mode) << " seed="
         << spec.seed << "\n";
  for (const auto& model : outcome.models) append_digest(digest, model);
  outcome.stats_digest = digest.str();
  outcome.report = render_report(spec, outcome.models);

  if (!spec.log_file.empty()) {
    // Merge the runs straight into the file, so the log text is never held
    // in RAM, checking the merge order on the way.  The pool has drained,
    // so the whole thread budget merges and formats the text.
    outcome.log_ordered =
        core::write_log_file(outcome.models.front().log_runs, spec.log_file, total_threads)
            .ordered;
  }
  if (!spec.stats_file.empty()) {
    util::write_text_file(spec.stats_file, outcome.stats_digest);
  }

  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
                        .count();

  write_obs_artifacts(effective_obs, outcome);
  return outcome;
}

obs::ObsConfig resolve_obs(const ScenarioSpec& spec, const RunOptions& options) {
  obs::ObsConfig obs;
  obs.metrics_file = options.metrics_file.empty() ? spec.obs_metrics : options.metrics_file;
  obs.trace_file = options.trace_file.empty() ? spec.obs_trace : options.trace_file;
  obs.trace_events = options.trace_events.value_or(spec.obs_trace_events);
  obs.progress = options.progress.value_or(spec.obs_progress);
  obs.label = spec.name;
  return obs;
}

void write_obs_artifacts(const obs::ObsConfig& obs, ScenarioOutcome& outcome) {
  // Assembled in model order so the documents — like the digest — never
  // depend on completion order.
  if (obs.collect()) {
    std::ostringstream obs_text;
    for (const auto& model : outcome.models) {
      obs_text << "model " << model.model << "\n" << model.registry.stable_text();
    }
    outcome.obs_text = obs_text.str();
  }
  if (obs.metrics()) {
    util::JsonValue doc = obs::metrics_document(obs.label, outcome.wall_ms);
    for (const auto& model : outcome.models) {
      obs::add_metrics_group(doc, model.model, model.registry);
    }
    outcome.metrics_json = doc.dump();
    util::write_text_file(obs.metrics_file, outcome.metrics_json);
  }
  if (obs.trace()) {
    std::vector<obs::TraceGroup> groups;
    for (const auto& model : outcome.models) {
      for (auto& group : obs::run_trace_groups(model.model, model.trace)) {
        groups.push_back(std::move(group));
      }
    }
    outcome.trace_json = obs::chrome_trace_json(groups);
    util::write_text_file(obs.trace_file, outcome.trace_json);
  }
}

}  // namespace wlgen::scenario
