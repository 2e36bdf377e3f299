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
#include "runner/universe.h"
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
  /// one memory run holding the replayed log (replay, when the scenario
  /// writes it); empty elsewhere.
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
  /// False when the written `output.log` broke the merge contract's
  /// (time, user) order, checked in the pass that wrote it (true when no
  /// log was written).
  bool log_ordered = true;
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

/// The workload every run of `spec` on `model` simulates: the spec's seed,
/// behaviour, population and traffic on the model's backend.  Every run
/// semantics compiles from it, the classic `wlgen run` included.
runner::WorkloadConfig workload_config(const ScenarioSpec& spec, const ModelChoice& model);

/// Effective obs switches of one invocation: the spec's [obs] keys with the
/// RunOptions overrides applied on top, labelled with the scenario name.
obs::ObsConfig resolve_obs(const ScenarioSpec& spec, const RunOptions& options);

/// Fills outcome.obs_text / metrics_json / trace_json from the models'
/// registries and traces (in model order) and writes the metrics report
/// and Chrome trace files `obs` names.
void write_obs_artifacts(const obs::ObsConfig& obs, ScenarioOutcome& outcome);

}  // namespace wlgen::scenario
