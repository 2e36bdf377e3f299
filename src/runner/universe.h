#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/replay.h"
#include "core/usage_log.h"
#include "core/usim.h"
#include "fsmodel/model.h"
#include "obs/obs.h"
#include "runner/model_factory.h"
#include "runner/stats.h"
#include "sim/simulation.h"
#include "traffic/traffic.h"

namespace wlgen::runner {

/// The user-oriented description of one workload, as the paper drives its
/// generator: the GDS distributions (in `population` and `usim`), the FSC
/// file system (`fsc`, `profiles`) and the USIM users (`usim`), run against
/// one backend with optional open-system traffic.  Every universe of a run
/// shares it.  RunnerConfig, ContendedConfig and the experiments' configs
/// derive from it and add only their own run-level fields.
struct WorkloadConfig {
  /// Root seed of the FSC layout, the user behaviour streams and the
  /// arrival timeline (replicated runs derive one seed per replication).
  std::uint64_t seed = 1991;

  /// Per-user behaviour (sessions_per_user, think/markov/pattern switches).
  /// The user range, seed, log switches, sink and record hook are set per
  /// universe.
  core::UsimConfig usim;

  /// Layout knobs; num_users, first_user and seed come from the universe's
  /// UsimConfig.
  core::FscConfig fsc;

  /// Initial-file-system category profiles (empty = core::di86_file_profiles()).
  std::vector<core::FileCategoryProfile> profiles;

  /// User-type mixture (empty groups = core::default_population()).
  core::Population population;

  /// Backend of each universe (null = nfs_model_factory()).
  ModelFactory model_factory;

  /// Open-system traffic (src/traffic/): optional open-loop arrivals plus a
  /// fault plan, installed identically in every universe.  A default
  /// (inert) TrafficConfig leaves every code path byte-identical.
  traffic::TrafficConfig traffic;

  /// The FSC's /system tree for `seed`, `fsc` and `profiles`, built by
  /// resolve() and copied by every universe whose layout it matches.  A
  /// universe at another seed or layout (a contended replication, a config
  /// changed after resolve()) builds its own instead.
  std::shared_ptr<const core::SystemTree> system_tree;

  /// Fills the empty fields with the defaults above (the paper's section
  /// 5.1 setup: NFS, the DI86 profiles, the default population), checks
  /// the traffic config and builds system_tree unless it already matches.
  /// Throws std::invalid_argument on an invalid traffic config, or on
  /// open-loop arrivals with usim.windows_per_user != 1, and like
  /// core::FileSystemCreator::create on an impossible layout.  Idempotent;
  /// run_universe expects a resolved config.
  void resolve();
};

/// What one universe produced.
struct UniverseRun {
  core::UsageLog log;  ///< empty unless the UsimConfig collected it
  double simulated_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::uint64_t rng_draws = 0;
  std::uint64_t heap_high_water = 0;

  /// The run's backend, kept for its stats_summary().  It is bound to the
  /// Simulation the universe ran on, which must outlive it.
  std::unique_ptr<fsmodel::FileSystemModel> model;

  /// Writes the sim, RNG and session counters into `sample` (the ops.*
  /// family comes from the caller's per-op fold).
  void count_into(obs::SimSample& sample) const;
};

/// Runs one universe on `sim`: resets it, builds the simulated file system
/// (clocked by `sim`), the backend with `config.traffic.faults` installed,
/// and the FSC layout for the users [usim.first_user, usim.first_user +
/// usim.num_users) at usim.seed, then USIM with the faults' churn windows.
/// Open-loop arrivals come from usim.arrival_times_us; when that is empty
/// the universe deals its own timeline to users [0, usim.first_user +
/// usim.num_users) from usim.seed.  Every FSC + USIM run in the tree goes
/// through here, from one of three drivers: ShardedRunner (independent
/// universes), ContendedRunner (replicated shared machines) and run_shared
/// (the shared machine at the root seed; exp::run_workload sets the same
/// universe up without run_shared's fold).  The universe copies
/// config.system_tree when it matches usim.seed and builds its own tree
/// otherwise.  The caller owns the per-record hook and the sink (both on
/// `usim`).  `config` must be resolved.
UniverseRun run_universe(sim::Simulation& sim, const WorkloadConfig& config,
                         core::UsimConfig usim);

/// What run_shared produced.
struct SharedRun {
  core::UsageLog log;  ///< empty unless workload.usim.collect_log
  RunnerStats stats;   ///< every record, folded in log order
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;         ///< logins completed
  std::uint64_t sessions_logged = 0;  ///< sessions with at least one record
  double simulated_us = 0.0;  ///< simulation clock when the last user finished
  std::string model_stats;    ///< the backend's stats_summary()
  obs::SimSample sample;      ///< sim/RNG counters when obs collects
  obs::RunTrace trace;        ///< op and model-stage spans when obs traces
};

/// The shared-machine run: `users` users at the root seed in one universe,
/// all queueing against one backend.  The classic `wlgen run`, replay
/// mode's trace recording and synthetic leg, and exp::run_workload call it.
/// No obs switch changes the log.
SharedRun run_shared(const WorkloadConfig& workload, std::size_t users,
                     const obs::ObsConfig& obs = {});

/// What replay_trace produced.
struct ReplayRun {
  core::UsageLog log;  ///< the replayed records in fold order; empty unless keep_log
  RunnerStats stats;   ///< every replayed record, folded as it was handed on
  std::uint64_t users = 0;            ///< highest user id + 1 (0 when empty)
  std::uint64_t sessions_logged = 0;  ///< sessions with at least one record
  std::string model;                  ///< the backend's name()
  obs::SimSample sample;  ///< sim counters and sessions_logged when obs collects
  obs::RunTrace trace;    ///< op and model-stage spans when obs traces
};

/// Trace replay (paper section 2.1): `trace` on a fresh backend in one
/// Simulation, each replayed record folded as the replayer hands it on (at
/// its completion in open loop).  The log is kept only with `keep_log`.
/// Scenario replay mode calls it.
ReplayRun replay_trace(const ModelFactory& model_factory, const core::UsageLog& trace,
                       core::TraceReplayer::Options options, const obs::ObsConfig& obs = {},
                       bool keep_log = false);

/// Opens a new cursor at the first record of a trace.
using TraceSource = std::function<std::unique_ptr<core::LogReader>()>;

/// replay_trace over a trace read as a stream, which `wlgen replay` calls:
/// open loop fires each record as it is read, so neither the trace nor the
/// replayed log is held.  At the first record whose scaled issue time goes
/// backwards it drops the simulation, the backend and the fold, and
/// replays the trace loaded whole through a second `source()`, as the
/// UsageLog overload does.  Closed loop loads the trace.
ReplayRun replay_trace(const ModelFactory& model_factory, const TraceSource& source,
                       core::TraceReplayer::Options options, const obs::ObsConfig& obs = {},
                       bool keep_log = false);

}  // namespace wlgen::runner
