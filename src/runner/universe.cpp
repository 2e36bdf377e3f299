#include "runner/universe.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fs/filesystem.h"

namespace wlgen::runner {

void WorkloadConfig::resolve() {
  if (profiles.empty()) profiles = core::di86_file_profiles();
  if (population.groups.empty()) population = core::default_population();
  if (!model_factory) model_factory = nfs_model_factory();
  traffic.validate();
  if (traffic.arrivals && usim.windows_per_user != 1) {
    throw std::invalid_argument(
        "WorkloadConfig: open-loop arrivals require windows_per_user == 1");
  }
}

UniverseRun run_universe(sim::Simulation& sim, const WorkloadConfig& config,
                         core::UsimConfig usim) {
  sim.reset();

  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&sim] { return sim.now(); });
  UniverseRun run;
  run.model = config.model_factory(sim);
  // The faults are server-side events: every universe of a run gets the
  // same timeline on its own backend.
  const traffic::FaultPlan& faults = config.traffic.faults;
  if (faults.any()) traffic::install_faults(sim, *run.model, faults);

  core::FscConfig fsc_config = config.fsc;
  fsc_config.num_users = usim.num_users;
  fsc_config.first_user = usim.first_user;
  fsc_config.seed = usim.seed;
  core::FileSystemCreator fsc(fsys, config.profiles, fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();

  if (config.traffic.arrivals && !usim.arrival_times_us) {
    usim.arrival_times_us = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config.traffic.arrivals, usim.first_user + usim.num_users,
                                 usim.seed));
  }
  usim.churn = faults.churns;
  core::UserSimulator simulator(sim, fsys, *run.model, manifest, config.population,
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
