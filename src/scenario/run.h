#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/log_sink.h"
#include "core/usage_log.h"
#include "obs/obs.h"
#include "runner/stats.h"
#include "scenario/spec.h"
#include "stats/sketch.h"
#include "stats/summary.h"

namespace wlgen::scenario {

/// Execution knobs that belong to the invocation, not the scenario file.
struct RunOptions {
  /// Overrides ScenarioSpec::threads when set (the CLI --threads flag).
  /// Purely an execution knob: results are bit-identical either way.
  std::optional<std::size_t> threads;

  /// CLI overrides for the spec's [obs] keys (--metrics/--trace/
  /// --trace-events/--progress).  Like every obs switch, they never change
  /// results or digests.
  std::string metrics_file;                ///< non-empty overrides obs.metrics
  std::string trace_file;                  ///< non-empty overrides obs.trace
  std::optional<std::size_t> trace_events; ///< overrides obs.trace_events
  std::optional<bool> progress;            ///< overrides obs.progress
};

/// Merged statistics of one measured point (one load point of a contended
/// sweep, the whole population of a sharded run, or one leg of a replay
/// A/B).  All fields follow the runners' merge contracts: bit-identical for
/// any thread/shard count.
struct PointOutcome {
  std::string label;    ///< "" for plain points; "trace replay", "synthetic" for replay legs
  std::size_t users = 0;
  runner::RunnerStats stats;
  /// Cross-replication mean/CI of response-per-byte (contended mode;
  /// half_width 0 elsewhere, mean = pooled level).
  stats::MeanCi response_per_byte;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t sessions_logged = 0;  ///< sessions with a record (sharded mode only)
};

/// Everything one model backend produced.
struct ModelOutcome {
  std::string model;
  std::vector<PointOutcome> points;
  /// The kept usage log as runs: the sharded runner's sorted runs (run
  /// files when the scenario spilled, log.spill; memory runs otherwise), or
  /// one memory run holding the replayed log (replay); empty elsewhere.
  /// core::open_spilled_log(log_runs) streams it.
  std::vector<core::SpillRun> log_runs;

  /// Response-time quantile sketch (sharded mode only; empty elsewhere).
  /// Bit-identical across shard/thread counts AND spill on/off, so its
  /// quantiles are part of the stats digest.
  stats::QuantileSketch response_sketch;

  /// Per-model observability outputs (empty when obs is off).  The stable
  /// registry metrics follow the owning runner's merge contract.
  obs::Registry registry;
  obs::RunTrace trace;
};

/// Result of compiling and executing one scenario.
struct ScenarioOutcome {
  std::vector<ModelOutcome> models;  ///< model order of the spec
  double wall_ms = 0.0;
  /// Rendered human-readable report (per-model tables plus a comparison
  /// table for multi-model scenarios).
  std::string report;
  /// Deterministic text serialization of every merged statistic — the
  /// artifact `output.stats` writes, and the value tests pin to prove
  /// thread-count invariance (%.17g doubles: equal bits => equal text).
  std::string stats_digest;

  /// Obs artifacts ("" when the corresponding switch is off).  metrics_json
  /// is the full `--metrics` report; trace_json the Chrome trace document;
  /// obs_text the exact text of every *stable* metric, model by model — the
  /// determinism tests pin obs_text across shard/thread counts exactly like
  /// stats_digest.
  std::string metrics_json;
  std::string trace_json;
  std::string obs_text;
};

/// Compiles `spec` onto ShardedRunner / ContendedRunner / TraceReplayer and
/// executes it.  Writes `output.log` / `output.stats` artifacts when the
/// spec names them.  Throws std::invalid_argument / std::runtime_error on
/// unreadable trace/GDS inputs or unwritable outputs.
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& options = {});

/// What generate_shared produced.
struct SharedRun {
  core::UsageLog log;
  runner::RunnerStats stats;  ///< the log's records, folded in log order
  std::uint64_t sessions = 0;
  double simulated_us = 0.0;  ///< simulation clock when the last user finished
  std::string model_stats;    ///< the backend's stats_summary()

  /// The run's obs outputs, filled per `obs`: sim/RNG counters when it
  /// collects, op and model-stage spans when it traces (ring budget
  /// obs.trace_events, split between the two).
  obs::SimSample sample;
  obs::RunTrace trace;
};

/// One shared-machine run: `users` users in one runner::run_universe
/// universe on the `model` backend, FSC and USIM seeded from the spec's
/// root seed, with the spec's arrivals and faults.  The classic `wlgen run`
/// (no --shards/--contended) and replay mode's trace recording and
/// synthetic leg all call it.  `obs.progress` adds a heartbeat on stderr;
/// like every obs switch, none of them changes the log.
SharedRun generate_shared(const ScenarioSpec& spec, const ModelChoice& model, std::size_t users,
                          const obs::ObsConfig& obs = {});

/// Effective obs switches of one invocation: the spec's [obs] keys with the
/// RunOptions overrides applied on top, labelled with the scenario name.
obs::ObsConfig resolve_obs(const ScenarioSpec& spec, const RunOptions& options);

/// Fills outcome.obs_text / metrics_json / trace_json from the models'
/// registries and traces (in model order) and writes the metrics report
/// and Chrome trace files `obs` names.
void write_obs_artifacts(const obs::ObsConfig& obs, ScenarioOutcome& outcome);

}  // namespace wlgen::scenario
