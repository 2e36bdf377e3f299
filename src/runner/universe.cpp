#include "runner/universe.h"

#include <utility>

#include "fs/filesystem.h"

namespace wlgen::runner {

UniverseRun run_universe(sim::Simulation& sim, const UniverseEnv& env, core::UsimConfig usim) {
  sim.reset();

  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&sim] { return sim.now(); });
  UniverseRun run;
  run.model = env.model_factory(sim);
  // The faults are server-side events: every universe of a run gets the
  // same timeline on its own backend.
  if (env.faults.any()) traffic::install_faults(sim, *run.model, env.faults);

  core::FscConfig fsc_config = env.fsc;
  fsc_config.num_users = usim.num_users;
  fsc_config.first_user = usim.first_user;
  fsc_config.seed = usim.seed;
  core::FileSystemCreator fsc(fsys, env.profiles, fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();

  usim.churn = env.faults.churns;
  core::UserSimulator simulator(sim, fsys, *run.model, manifest, env.population,
                                std::move(usim));
  simulator.run();

  run.log = simulator.take_log();
  run.simulated_us = sim.now();
  run.ops = simulator.total_ops();
  run.sessions = simulator.sessions_completed();
  run.events = sim.events_processed();
  run.rng_draws = simulator.rng_draws();
  run.heap_high_water = sim.arena_high_water();
  return run;
}

void UniverseRun::count_into(obs::SimSample& sample) const {
  sample.sim_events = events;
  sample.heap_high_water = heap_high_water;
  sample.rng_draws = rng_draws;
  sample.sessions = sessions;
}

}  // namespace wlgen::runner
