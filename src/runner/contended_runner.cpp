#include "runner/contended_runner.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/progress.h"
#include "runner/pool.h"
#include "util/rng.h"

namespace wlgen::runner {

std::uint64_t replication_seed(std::uint64_t root_seed, std::size_t replication) {
  // Chain two util::splitmix64 steps so nearby (root, replication) pairs
  // never collide by simple arithmetic coincidence; the result is a pure
  // function of the two inputs.
  std::uint64_t state = root_seed;
  state = util::splitmix64(state) + static_cast<std::uint64_t>(replication);
  return util::splitmix64(state);
}

/// Everything one replication produces; slots are per-job, so workers never
/// write to shared state.
struct ContendedRunner::JobOutcome {
  explicit JobOutcome(HistogramSpec spec) : stats(spec) {}

  RunnerStats stats;
  UniverseRun run;  ///< its backend is dropped as soon as the job finishes
};

ContendedRunner::ContendedRunner(ContendedConfig config) : config_(std::move(config)) {
  if (config_.user_points.empty()) {
    throw std::invalid_argument("ContendedRunner: need >= 1 sweep point");
  }
  for (const std::size_t users : config_.user_points) {
    if (users == 0) throw std::invalid_argument("ContendedRunner: sweep points need >= 1 user");
  }
  if (config_.replications == 0) {
    throw std::invalid_argument("ContendedRunner: need >= 1 replication");
  }
  config_.resolve();
  if (config_.tune_model) {
    // Tuned before the faults go in, like any freshly built model.
    config_.model_factory = [build = std::move(config_.model_factory),
                             tune = std::exchange(config_.tune_model, nullptr)](
                                sim::Simulation& sim) {
      auto model = build(sim);
      tune(*model);
      return model;
    };
  }
}

void ContendedRunner::run_replication(sim::Simulation& sim, std::size_t users,
                                      std::uint64_t seed, JobOutcome& out,
                                      obs::SimSample* sample, obs::TraceRing* op_ring) const {
  core::UsimConfig usim_config = config_.usim;
  usim_config.num_users = users;
  usim_config.first_user = 0;
  usim_config.population_users = users;
  usim_config.seed = seed;
  usim_config.collect_log = false;  // aggregates only; replications do not share a log
  // Same single-observation-point pattern as ShardedRunner::run_user: the
  // per-op fold, plus the op span only when tracing.
  if (op_ring == nullptr) {
    usim_config.on_record = [&out](const core::OpRecord& r) { out.stats.add(r); };
  } else {
    usim_config.on_record = [&out, op_ring](const core::OpRecord& r) {
      out.stats.add(r);
      obs::record_op(*op_ring, r);
    };
  }

  // Fault events land on the replication's shared model — the server-side
  // disturbance every user of the point experiences together — and the
  // universe deals its own arrival timeline from the replication seed.
  out.run = run_universe(sim, config_, std::move(usim_config));
  out.run.model.reset();
  if (sample != nullptr) out.run.count_into(*sample);
}

ContendedResult ContendedRunner::run() {
  if (ran_) throw std::logic_error("ContendedRunner::run: may only run once");
  ran_ = true;

  const std::size_t points = config_.user_points.size();
  const std::size_t reps = config_.replications;
  const std::size_t jobs = points * reps;

  std::vector<JobOutcome> outcomes;  // move-only: a slot briefly holds its backend
  outcomes.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) outcomes.emplace_back(config_.histogram);

  // Observability sinks: per-job samples (fold in fixed job order) and
  // per-job trace rings; all empty when obs is off.
  const bool collect = config_.obs.collect();
  const bool trace_on = config_.obs.trace();
  std::vector<obs::SimSample> samples(collect ? jobs : 0);
  std::vector<obs::TraceRing> op_rings;
  std::vector<obs::TraceRing> stage_rings;
  if (trace_on) {
    const std::size_t share = obs::ring_share(config_.obs.trace_events / 2, jobs);
    op_rings.assign(jobs, obs::TraceRing(share));
    stage_rings.assign(jobs, obs::TraceRing(share));
  }
  std::optional<obs::ProgressReporter> progress;
  if (config_.obs.progress) {
    obs::ProgressReporter::Options options;
    options.label = config_.obs.label.empty() ? "contended sweep" : config_.obs.label;
    options.unit = "replications";
    options.total_units = jobs;
    progress.emplace(std::move(options));
  }
  PoolObs pool_obs;
  pool_obs.record_spans = trace_on;
  PoolObs* const pool_ptr = config_.obs.any() ? &pool_obs : nullptr;

  // Workers drain the (point x replication) grid; each owns one Simulation
  // whose clock and event arena are reset between jobs.  Job j = p * reps + r
  // writes only to slot j, so scheduling never touches shared state.
  drain_pool(jobs, config_.threads, [&]() -> PoolJob {
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t j, const std::atomic<bool>& cancelled) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t p = j / reps;
      const std::size_t r = j % reps;
      const std::size_t users = config_.user_points[p];
      const std::uint64_t seed = replication_seed(config_.seed, r);
      obs::ScopedStageTrace stage_trace(trace_on ? &stage_rings[j] : nullptr);
      run_replication(*sim, users, seed, outcomes[j], collect ? &samples[j] : nullptr,
                      trace_on ? &op_rings[j] : nullptr);
      const UniverseRun& run = outcomes[j].run;
      if (progress) progress->advance(1, run.events, run.simulated_us);
    };
  }, pool_ptr);

  // Deterministic fold: fixed (point, replication) order, independent of
  // which thread produced each slot.
  ContendedResult result;
  result.points.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    ContendedPoint point;
    point.users = config_.user_points[p];
    point.stats = RunnerStats(config_.histogram);
    point.replication_levels.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const JobOutcome& out = outcomes[p * reps + r];
      point.stats.merge(out.stats);
      point.replication_levels.push_back(out.stats.response_per_byte_us());
      point.total_ops += out.run.ops;
      point.sessions_completed += out.run.sessions;
    }
    point.response_per_byte =
        stats::mean_confidence_interval(point.replication_levels, config_.confidence);
    result.total_ops += point.total_ops;
    result.points.push_back(std::move(point));
  }

  if (progress) progress->stop();
  if (collect) {
    // Every job's per-op fold in job order across all points: the points'
    // own stats group the jobs differently, which would move the sums.
    obs::SimSample merged;
    core::OpStats ops;
    for (std::size_t j = 0; j < jobs; ++j) {
      merged.merge(samples[j]);
      ops.merge(outcomes[j].stats.op_stats());
    }
    merged.export_into(result.registry, ops);
    if (config_.traffic.any()) {
      // Pure functions of the config — thread invariant, so stable.
      if (config_.traffic.arrivals) {
        result.registry.add_counter("traffic.arrivals",
                                    config_.traffic.arrivals->sessions * jobs);
      }
      result.registry.add_counter("traffic.slowdown_windows",
                                  config_.traffic.faults.slowdowns.size());
      result.registry.add_counter("traffic.flush_events",
                                  config_.traffic.faults.flush_times_us.size());
      result.registry.add_counter("traffic.churn_windows",
                                  config_.traffic.faults.churns.size());
    }
    if (pool_ptr != nullptr) obs::export_pool(pool_obs, result.registry);
  }
  if (trace_on) {
    for (std::size_t j = 0; j < jobs; ++j) {
      result.trace.ops.append(op_rings[j]);
      result.trace.stages.append(stage_rings[j]);
    }
    result.trace.pool = obs::TraceRing(pool_obs.spans.size());
    obs::pool_spans_into(pool_obs, result.trace.pool);
  }
  result.pool = std::move(pool_obs);
  return result;
}

}  // namespace wlgen::runner
