#include "runner/universe.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fs/filesystem.h"
#include "obs/progress.h"

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

namespace {

/// The op and model-stage rings of a serial run: half the budget each.
obs::RunTrace serial_trace(const obs::ObsConfig& obs) {
  obs::RunTrace trace;
  if (obs.trace()) {
    const std::size_t share = obs::ring_share(obs.trace_events / 2, 1);
    trace.ops = obs::TraceRing(share);
    trace.stages = obs::TraceRing(share);
  }
  return trace;
}

}  // namespace

SharedRun run_shared(const WorkloadConfig& workload, std::size_t users,
                     const obs::ObsConfig& obs) {
  SharedRun run;
  run.trace = serial_trace(obs);
  // One serial Simulation: the model-stage ring stays installed throughout.
  obs::ScopedStageTrace stage_trace(obs.trace() ? &run.trace.stages : nullptr);

  WorkloadConfig resolved = workload;
  resolved.resolve();
  core::UsimConfig config = resolved.usim;
  config.num_users = users;
  config.seed = resolved.seed;
  std::unique_ptr<obs::ProgressReporter> progress;
  if (obs.progress) {
    obs::ProgressReporter::Options options;
    options.label = obs.label;
    options.unit = "ops";
    progress = std::make_unique<obs::ProgressReporter>(std::move(options));
  }
  // The hook sees the records in log order, as a pass over the log would.
  core::SessionCounter sessions;
  config.on_record = [&run, &sessions, ops = obs.trace() ? &run.trace.ops : nullptr,
                      heartbeat = progress.get()](const core::OpRecord& record) {
    run.stats.add(record);
    sessions.add(record);
    if (ops != nullptr) obs::record_op(*ops, record);
    if (heartbeat != nullptr) {
      heartbeat->advance(1, 0, 0.0);
      heartbeat->note_sim_time(record.issue_time_us + record.response_us);
    }
  };
  sim::Simulation simulation;
  UniverseRun universe = run_universe(simulation, resolved, std::move(config));
  if (progress) progress->stop();

  run.log = std::move(universe.log);
  run.ops = universe.ops;
  run.sessions = universe.sessions;
  run.sessions_logged = sessions.count();
  run.simulated_us = universe.simulated_us;
  run.model_stats = universe.model->stats_summary();
  if (obs.collect()) universe.count_into(run.sample);
  return run;
}

namespace {

/// One replay of `trace` on a fresh Simulation and backend, folding each
/// record as the replayer hands it on.  Empty when `trace` is a stream
/// whose issue times went backwards: the attempt is dropped whole.
template <typename Trace>
std::optional<ReplayRun> replay_once(const ModelFactory& model_factory, Trace& trace,
                                     const core::TraceReplayer::Options& options,
                                     const obs::ObsConfig& obs, bool keep_log) {
  ReplayRun run;
  run.trace = serial_trace(obs);
  obs::ScopedStageTrace stage_trace(obs.trace() ? &run.trace.stages : nullptr);
  sim::Simulation simulation;
  const auto model = model_factory(simulation);
  run.model = model->name();
  core::SessionCounter sessions;
  const bool complete = core::TraceReplayer(simulation, *model, trace)
                            .run(options, [&](const core::OpRecord& record) {
                              run.stats.add(record);
                              sessions.add(record);
                              run.users = std::max<std::uint64_t>(run.users,
                                                                  std::uint64_t{record.user} + 1);
                              if (obs.trace()) obs::record_op(run.trace.ops, record);
                              if (keep_log) run.log.append(record);
                            });
  if (!complete) return std::nullopt;
  run.sessions_logged = sessions.count();
  if (obs.collect()) {
    run.sample.sim_events = simulation.events_processed();
    run.sample.heap_high_water = simulation.arena_high_water();
    run.sample.sessions = run.sessions_logged;
  }
  return run;
}

}  // namespace

ReplayRun replay_trace(const ModelFactory& model_factory, const core::UsageLog& trace,
                       core::TraceReplayer::Options options, const obs::ObsConfig& obs,
                       bool keep_log) {
  return *replay_once(model_factory, trace, options, obs, keep_log);
}

ReplayRun replay_trace(const ModelFactory& model_factory, const TraceSource& source,
                       core::TraceReplayer::Options options, const obs::ObsConfig& obs,
                       bool keep_log) {
  {
    const std::unique_ptr<core::LogReader> stream = source();
    if (auto run = replay_once(model_factory, *stream, options, obs, keep_log)) {
      return std::move(*run);
    }
  }
  const core::UsageLog trace = core::materialize(*source());
  return *replay_once(model_factory, trace, options, obs, keep_log);
}

void UniverseRun::count_into(obs::SimSample& sample) const {
  sample.sim_events = events;
  sample.heap_high_water = heap_high_water;
  sample.rng_draws = rng_draws;
  sample.sessions = sessions;
}

}  // namespace wlgen::runner
