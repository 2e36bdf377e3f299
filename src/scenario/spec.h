#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/usim.h"
#include "core/workload.h"
#include "runner/model_factory.h"
#include "traffic/traffic.h"
#include "util/config.h"

namespace wlgen::scenario {

/// Which execution path a scenario compiles onto (see DESIGN.md "Scenario
/// subsystem" and docs/SCENARIOS.md):
///
/// * `sharded`   — runner::ShardedRunner: every user an independent
///                 workstation universe, merged deterministically.
/// * `contended` — runner::ContendedRunner: all users of a load point share
///                 one machine (the Figures 5.6–5.11 physics), load points ×
///                 replications fanned over the worker pool.
/// * `replay`    — core::TraceReplayer: record (or load) a trace, replay it
///                 on the target model(s), optionally generate a synthetic
///                 counterpart at a different population size — the paper's
///                 section 2.1 trace-vs-generator A/B.
enum class RunMode { sharded, contended, replay };

const char* to_string(RunMode mode);

/// One model backend a scenario runs against, with its parameter overrides
/// (validated against runner::model_param_keys at parse time).
struct ModelChoice {
  std::string name;  ///< "nfs" | "local" | "wholefile"
  std::vector<runner::ModelParamOverride> overrides;

  runner::ModelFactory factory() const;
};

/// A parsed, validated scenario — the declarative description of one
/// workload experiment: population, behaviour overrides, model backends,
/// run mode and outputs.  Compiled onto the runners by
/// scenario::run_scenario (scenario/run.h).
struct ScenarioSpec {
  // [scenario]
  std::string name;
  std::string description;
  RunMode mode = RunMode::contended;
  std::uint64_t seed = 1991;
  std::size_t threads = 0;  ///< 0 = hardware concurrency (never affects results)

  // [workload]
  std::vector<std::size_t> user_points;  ///< one point, or a sweep (contended only)
  std::size_t sessions = 50;
  double heavy_fraction = 1.0;
  core::AccessPattern pattern = core::AccessPattern::sequential;
  double markov = -1.0;  ///< <0 = the paper's independent stream
  std::size_t windows = 1;
  std::string think_time;   ///< distribution expression, "" = preset
  std::string access_size;  ///< distribution expression, "" = preset
  std::string gds_file;     ///< optional GDS spec file with named overrides

  // [model]
  std::vector<ModelChoice> models;  ///< at least one

  // [sharded]
  std::size_t shards = 1;
  /// Keep the merged log: derived at parse, true exactly when log.spill or
  /// output.log is set (`run --verify-merge` also sets it on its plan).
  bool collect_log = false;
  bool resume = false;  ///< skip shards with valid checkpoints (needs log.checkpoint)

  // [log] — streaming log pipeline (sharded mode; docs/SCENARIOS.md "[log]").
  bool log_spill = false;       ///< stream per-shard records to sorted disk runs
  std::string log_spool_dir;    ///< resolved at parse ("" key = .wlgen-spool/<name>)
  bool log_checkpoint = false;  ///< persist per-shard checkpoints for resume

  // [contended]
  std::size_t replications = 3;
  double confidence = 0.95;

  // [replay]
  std::string trace_file;         ///< "" = record the trace synthetically first
  bool closed_loop = true;
  double time_scale = 1.0;
  std::size_t synthetic_users = 0;  ///< >0 adds the synthetic comparison run

  // [arrivals] + [faults] — open-system traffic (docs/SCENARIOS.md).  An
  // inert TrafficConfig (no [arrivals]/[faults] keys) leaves every run
  // byte-identical with pre-traffic builds.  Times in the file are seconds;
  // they are converted to µs here at parse time.
  traffic::TrafficConfig traffic;

  // [obs] — observability (docs/SCENARIOS.md "Observability keys").  All
  // off by default; none of them ever changes results or digests.
  std::string obs_metrics;  ///< metrics JSON report file ("" = off)
  std::string obs_trace;    ///< Chrome trace JSON file ("" = off)
  std::size_t obs_trace_events = 65536;  ///< trace ring budget (events)
  bool obs_progress = false;             ///< heartbeat lines on stderr

  // [output]
  std::string log_file;    ///< merged/replayed usage log (not contended)
  std::string stats_file;  ///< deterministic merged-stats digest

  std::string origin;  ///< file path or "<scenario>", for error messages

  /// Parses + validates a Config.  Throws std::invalid_argument with
  /// "origin:line:"-prefixed messages on unknown keys, mode mismatches,
  /// bad values, or unknown model parameters.
  static ScenarioSpec parse(const util::Config& config);
  static ScenarioSpec parse_text(const std::string& text,
                                 const std::string& origin = "<scenario>");
  static ScenarioSpec parse_file(const std::string& path);

  /// The user population this scenario drives: mixed_population(heavy_fraction)
  /// with the [workload] distribution overrides applied (file first, inline
  /// expressions second — inline wins; see docs/SCENARIOS.md "Precedence").
  core::Population population() const;

  /// Per-user behaviour shared by every compile target.
  core::UsimConfig usim_config() const;

  /// Human-readable echo of the resolved spec (`wlgen scenario --print`).
  std::string summary() const;
};

/// Sorted paths of the `*.scn` files directly under `dir`; throws
/// std::invalid_argument when `dir` is not a directory.
std::vector<std::string> scenario_files(const std::string& dir);

}  // namespace wlgen::scenario
