#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fsc.h"
#include "core/presets.h"
#include "core/usage_log.h"
#include "core/usim.h"
#include "fsmodel/model.h"
#include "obs/obs.h"
#include "runner/model_factory.h"
#include "sim/simulation.h"
#include "traffic/faults.h"

namespace wlgen::runner {

/// What every universe of a run shares: the backend, the initial file
/// system's shape, the user mixture and the fault schedule.  The defaults
/// are the paper's section 5.1 setup (NFS, the DI86 profiles, the default
/// population, no faults).
struct UniverseEnv {
  ModelFactory model_factory = nfs_model_factory();
  std::vector<core::FileCategoryProfile> profiles = core::di86_file_profiles();

  /// Layout knobs; num_users, first_user and seed come from the UsimConfig.
  core::FscConfig fsc;

  core::Population population = core::default_population();
  traffic::FaultPlan faults;
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

  /// Writes the sim, RNG and session counters into `sample` (its op tally
  /// belongs to the caller's record hook).
  void count_into(obs::SimSample& sample) const;
};

/// Runs one universe on `sim`: resets it, builds the simulated file system
/// (clocked by `sim`), the backend with `env.faults` installed, and the FSC
/// layout for the users [usim.first_user, usim.first_user + usim.num_users)
/// at usim.seed, then USIM with the faults' churn windows.  Every FSC + USIM
/// run in the tree — sharded users, contended replications, the
/// shared-machine run and the experiments — goes through here.  The caller
/// owns the per-record hook, the sink and the arrival timeline (all on
/// `usim`).
UniverseRun run_universe(sim::Simulation& sim, const UniverseEnv& env, core::UsimConfig usim);

}  // namespace wlgen::runner
