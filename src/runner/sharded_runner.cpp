#include "runner/sharded_runner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/progress.h"
#include "runner/checkpoint.h"
#include "runner/pool.h"

namespace wlgen::runner {

namespace {

std::string shard_stem(std::size_t shard) {
  char buffer[26];  // "shard", up to 20 digits of a 64-bit index and the '\0'
  std::snprintf(buffer, sizeof buffer, "shard%06zu", shard);
  return buffer;
}

/// The resume error for a checkpointed record whose user lies outside its
/// shard (a corrupt or foreign run file).
std::runtime_error stray_user_error(const ShardCheckpoint& ckpt, const core::SpillRun& run,
                                    std::uint32_t user) {
  return std::runtime_error("resume: run file '" + run.path + "' holds a record of user " +
                            std::to_string(user) + ", outside shard " +
                            std::to_string(ckpt.shard) + "'s users [" +
                            std::to_string(ckpt.begin) + ", " + std::to_string(ckpt.end) + ")");
}

}  // namespace

/// Everything one user's universe produces; slots are per-user, so workers
/// never write to shared state.
struct ShardedRunner::UserOutcome {
  explicit UserOutcome(HistogramSpec spec) : stats(spec) {}

  RunnerStats stats;
  std::uint64_t sessions_logged = 0;  ///< sessions with at least one record
  UniverseRun run;  ///< its backend is dropped as soon as the user finishes
};

ShardedRunner::ShardedRunner(RunnerConfig config) : config_(std::move(config)) {
  if (config_.num_users == 0) throw std::invalid_argument("ShardedRunner: need >= 1 user");
  if (config_.shards == 0) throw std::invalid_argument("ShardedRunner: need >= 1 shard");
  if (config_.spill.enabled) {
    if (config_.spill.spool_dir.empty()) {
      throw std::invalid_argument("ShardedRunner: spill requires a spool directory");
    }
    if (!config_.collect_log) {
      throw std::invalid_argument(
          "ShardedRunner: spill streams the log to disk, which conflicts with "
          "collect_log = false (aggregates-only mode); enable the log or disable spill");
    }
    if (config_.spill.buffer_records == 0) {
      throw std::invalid_argument("ShardedRunner: spill.buffer_records must be >= 1");
    }
  }
  if (config_.spill.checkpoint && !config_.spill.enabled) {
    throw std::invalid_argument(
        "ShardedRunner: checkpointing persists spilled runs; it requires spill");
  }
  if (config_.spill.resume && !config_.spill.checkpoint) {
    throw std::invalid_argument("ShardedRunner: resume requires checkpointing");
  }
  config_.resolve();
}

std::string ShardedRunner::fingerprint() const {
  char buffer[192];
  // Literal draw_batch=1 (a retired knob): older builds' checkpoints must still match.
  std::snprintf(buffer, sizeof buffer,
                "v1 seed=%llu users=%zu shards=%zu sessions=%zu draw_batch=1 windows=%zu",
                static_cast<unsigned long long>(config_.seed), config_.num_users,
                config_.shards, config_.usim.sessions_per_user, config_.usim.windows_per_user);
  std::string fp = buffer;
  fp += " tag=";
  fp += config_.spill.config_tag;
  // Traffic identity: any arrival/fault change must invalidate checkpoints.
  // Appended only when configured so pre-traffic checkpoints stay valid.
  if (config_.traffic.any()) {
    fp += " traffic=";
    fp += config_.traffic.tag();
  }
  return fp;
}

void ShardedRunner::run_user(sim::Simulation& sim, std::size_t user, UserOutcome& out,
                             obs::SimSample* sample, obs::TraceRing* op_ring,
                             core::LogSink* sink, stats::QuantileSketch* sketch) const {
  core::UsimConfig usim_config = config_.usim;
  usim_config.num_users = 1;
  usim_config.first_user = user;
  usim_config.population_users = config_.num_users;
  usim_config.seed = config_.seed;
  usim_config.collect_log = config_.collect_log;
  usim_config.sink = sink;  // non-null => records stream to the shard's runs
  usim_config.arrival_times_us = arrivals_;
  // The record hook is the single observation point: the per-op fold, the
  // sketch and the session count, plus the op span only when tracing.
  core::SessionCounter sessions;
  if (op_ring == nullptr) {
    usim_config.on_record = [&out, &sessions, sketch](const core::OpRecord& r) {
      out.stats.add(r);
      sketch->add(r.response_us);
      sessions.add(r);
    };
  } else {
    usim_config.on_record = [&out, &sessions, sketch, op_ring](const core::OpRecord& r) {
      out.stats.add(r);
      sketch->add(r.response_us);
      sessions.add(r);
      obs::record_op(*op_ring, r);
    };
  }

  out.run = run_universe(sim, config_, std::move(usim_config));
  out.run.model.reset();
  out.sessions_logged = sessions.count();
  if (sample != nullptr) out.run.count_into(*sample);
}

RunnerResult ShardedRunner::run() {
  if (ran_) throw std::logic_error("ShardedRunner::run: may only run once");
  ran_ = true;

  const std::size_t num_users = config_.num_users;
  const std::vector<UserRange> ranges = partition_users(num_users, config_.shards);
  const bool spill = config_.spill.enabled;

  // Open-loop arrivals: one global timeline from the root seed, dealt to
  // users before the pool starts — a pure function of the config, never of
  // the shard cut or scheduling.
  if (config_.traffic.arrivals) {
    arrivals_ = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config_.traffic.arrivals, num_users, config_.seed));
  }

  std::vector<UserOutcome> outcomes;  // move-only: a slot briefly holds its backend
  outcomes.reserve(num_users);
  for (std::size_t u = 0; u < num_users; ++u) outcomes.emplace_back(config_.histogram);

  // Per-shard state: one lazily-created run sink per shard when the log is
  // kept (each slot touched only by the worker that owns the shard), one
  // quantile sketch per shard (integer merge => any shard grouping yields
  // the same merged sketch), and — under resume — the shards whose
  // checkpoints were accepted with the sessions their records hold.
  const std::string fp = fingerprint();
  std::vector<std::unique_ptr<core::SpillSink>> sinks(ranges.size());
  std::vector<stats::QuantileSketch> sketches(ranges.size());
  std::vector<std::optional<ShardCheckpoint>> resumed(ranges.size());
  std::vector<std::uint64_t> resumed_sessions(ranges.size(), 0);
  std::vector<char> wrote_ckpt(ranges.size(), 0);
  if (spill) {
    std::filesystem::create_directories(config_.spill.spool_dir);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      const std::string ckpt_path = checkpoint_path(config_.spill.spool_dir, s);
      if (config_.spill.resume) {
        resumed[s] = load_checkpoint(ckpt_path, fp, ranges[s].begin, ranges[s].end);
      }
      if (config_.spill.checkpoint && !resumed[s].has_value()) {
        // Drop any stale/rejected checkpoint so an interruption during this
        // run can never leave a file that lies about the new run files.
        std::error_code ec;
        std::filesystem::remove(ckpt_path, ec);
      }
    }
  }

  // Observability sinks: per-user samples (merge in user order, like stats)
  // and per-shard trace rings (each touched by one worker, appended in
  // shard order).  All empty when obs is off.
  const bool collect = config_.obs.collect();
  const bool trace_on = config_.obs.trace();
  std::vector<obs::SimSample> samples(collect ? num_users : 0);
  std::vector<obs::TraceRing> op_rings;
  std::vector<obs::TraceRing> stage_rings;
  if (trace_on) {
    const std::size_t share = obs::ring_share(config_.obs.trace_events / 2, ranges.size());
    op_rings.assign(ranges.size(), obs::TraceRing(share));
    stage_rings.assign(ranges.size(), obs::TraceRing(share));
  }
  std::optional<obs::ProgressReporter> progress;
  if (config_.obs.progress) {
    obs::ProgressReporter::Options options;
    options.label = config_.obs.label.empty() ? "sharded run" : config_.obs.label;
    options.unit = "users";
    options.total_units = num_users;
    progress.emplace(std::move(options));
  }
  PoolObs pool_obs;
  pool_obs.record_spans = trace_on;
  PoolObs* const pool_ptr = config_.obs.any() ? &pool_obs : nullptr;

  // Shards are handed out in index order, or — when arrivals are assigned,
  // so the work per shard is known up front — most arrivals first (stable
  // on the index), so that a long shard does not start last.  Every result
  // is indexed by shard and user, so the order changes no output.
  std::vector<std::size_t> order(ranges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (arrivals_) {
    std::vector<std::size_t> shard_arrivals(ranges.size(), 0);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
        shard_arrivals[s] += (*arrivals_)[u].size();
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return shard_arrivals[a] > shard_arrivals[b];
    });
  }

  // Workers drain the shard queue (runner::drain_pool); each owns one
  // Simulation whose clock and event arena are reset between users, so the
  // arena's allocation ramp-up is paid once per worker, not once per user.
  // A failure in any worker cancels the remaining shards — a 1M-user run
  // must not keep simulating for minutes after the error is known — and the
  // cancellation flag is also polled between users inside a shard.
  drain_pool(ranges.size(), config_.threads, [&]() -> PoolJob {
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t job, const std::atomic<bool>& cancelled) {
      const std::size_t s = order[job];
      // Installs this shard's stage ring (or null) for the worker while it
      // runs this shard; save/restore keeps nested pools correct.
      obs::ScopedStageTrace stage_trace(trace_on ? &stage_rings[s] : nullptr);

      if (resumed[s].has_value()) {
        // Checkpointed shard: skip the simulation and rebuild the per-user
        // accumulators by re-reading its sorted runs, one after another.  A
        // user's records all lie in one run, and the run's merge of its
        // segments breaks (time, user) ties by append order, so it preserved
        // their original append order: every per-user slot sees the exact
        // same sequence of add() calls as a live run — which is what keeps
        // the floating-point folds (and therefore the digest) bit-identical.
        // The sketch and the session count do not depend on the order.  The
        // same pass rebuilds each run's blocks (keys and byte offsets) for
        // the log writer.  Shard totals that records cannot reproduce
        // (events, RNG draws, ...) come from the checkpoint's
        // grouping-invariant integer scalars instead.
        ShardCheckpoint& ckpt = *resumed[s];
        core::SessionCounter sessions;
        core::OpRecord r;
        for (core::SpillRun& run : ckpt.runs) {
          core::RunFileReader reader(run);
          auto index = std::make_shared<std::vector<core::RunBlock>>();
          for (std::uint64_t position = 0;; ++position) {
            const std::uint64_t offset = reader.offset();
            if (!reader.next(r)) break;
            if (cancelled.load(std::memory_order_relaxed)) return;
            // The user field comes from disk: index nothing with it until
            // it is known to belong to this shard (another shard's slot
            // would race with the worker that owns it).
            if (r.user < ckpt.begin || r.user >= ckpt.end) {
              throw stray_user_error(ckpt, run, r.user);
            }
            outcomes[r.user].stats.add(r);
            sketches[s].add(r.response_us);
            sessions.add(r);
            core::index_record(*index, position, r, offset);
          }
          run.index = std::move(index);
        }
        resumed_sessions[s] = sessions.count();
        if (progress) {
          progress->advance(ranges[s].size(), ckpt.events, ckpt.max_simulated_us);
        }
        return;
      }

      core::LogSink* sink = nullptr;
      if (config_.collect_log) {
        // No directory keeps the shard's runs in memory.
        sinks[s] = std::make_unique<core::SpillSink>(spill ? config_.spill.spool_dir : "",
                                                     shard_stem(s),
                                                     config_.spill.buffer_records);
        sink = sinks[s].get();
      }
      std::uint64_t events = 0;
      std::uint64_t ops = 0;
      for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        run_user(*sim, u, outcomes[u], collect ? &samples[u] : nullptr,
                 trace_on ? &op_rings[s] : nullptr, sink, &sketches[s]);
        const UniverseRun& run = outcomes[u].run;
        events += run.events;
        ops += run.ops;
        if (progress) progress->advance(1, run.events, run.simulated_us);
      }
      if (sink != nullptr) sinks[s]->close();
      if (config_.spill.checkpoint) {
        // Reached only when every user in the shard completed (cancellation
        // returns early above), so the checkpoint always describes a whole
        // shard.  Written atomically; a crash between shards leaves the
        // finished ones resumable and the in-flight one absent.
        ShardCheckpoint ckpt;
        ckpt.shard = s;
        ckpt.begin = ranges[s].begin;
        ckpt.end = ranges[s].end;
        ckpt.events = events;
        ckpt.ops = ops;
        for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
          const UniverseRun& run = outcomes[u].run;
          ckpt.sessions += run.sessions;
          ckpt.rng_draws += run.rng_draws;
          ckpt.heap_high_water = std::max(ckpt.heap_high_water, run.heap_high_water);
          ckpt.max_simulated_us = std::max(ckpt.max_simulated_us, run.simulated_us);
        }
        ckpt.runs = sinks[s]->runs();
        write_checkpoint(checkpoint_path(config_.spill.spool_dir, s), ckpt, fp);
        wrote_ckpt[s] = 1;
      }
    };
  }, pool_ptr);
  for (PoolJobSpan& span : pool_obs.spans) span.job = static_cast<std::uint32_t>(order[span.job]);

  // Deterministic fold: ascending global user order, independent of which
  // shard or thread produced each slot.  Resumed shards contributed their
  // per-user statistics through the reconstruction above; their integer
  // shard totals fold afterwards (sums/maxima — grouping-invariant).
  RunnerResult result;
  result.stats = RunnerStats(config_.histogram);
  for (std::size_t u = 0; u < num_users; ++u) {
    const UniverseRun& run = outcomes[u].run;
    result.stats.merge(outcomes[u].stats);
    result.sessions_logged += outcomes[u].sessions_logged;
    result.total_ops += run.ops;
    result.sessions_completed += run.sessions;
  }
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    if (!resumed[s].has_value()) continue;
    const ShardCheckpoint& ckpt = *resumed[s];
    result.total_ops += ckpt.ops;
    result.sessions_completed += ckpt.sessions;
    result.sessions_logged += resumed_sessions[s];
    result.shards_resumed += 1;
  }
  if (config_.collect_log) {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      const auto& shard_runs = resumed[s].has_value() ? resumed[s]->runs : sinks[s]->runs();
      result.log_runs.insert(result.log_runs.end(), shard_runs.begin(), shard_runs.end());
    }
  }
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    result.response_sketch.merge(sketches[s]);
    result.checkpoints_written += wrote_ckpt[s];
  }

  if (progress) progress->stop();
  if (collect) {
    obs::SimSample merged;
    for (std::size_t u = 0; u < num_users; ++u) merged.merge(samples[u]);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      if (!resumed[s].has_value()) continue;
      const ShardCheckpoint& ckpt = *resumed[s];
      merged.sim_events += ckpt.events;
      merged.rng_draws += ckpt.rng_draws;
      merged.sessions += ckpt.sessions;
      merged.heap_high_water = std::max(merged.heap_high_water, ckpt.heap_high_water);
    }
    merged.export_into(result.registry, result.stats.op_stats());
    if (spill) {
      std::uint64_t records = 0;
      std::uint64_t bytes = 0;
      for (const auto& run : result.log_runs) {
        records += run.records;
        bytes += run.bytes;
      }
      // Record count equals the merged log length — shard/thread invariant.
      // Run/byte/fan-in shapes depend on the shard cut, so they live with
      // the unstable (timing-ish) metrics.
      result.registry.add_counter("spill.records", records);
      result.registry.add_counter("spill.runs_written", result.log_runs.size(),
                                  /*stable=*/false);
      result.registry.add_counter("spill.bytes", bytes, /*stable=*/false);
      result.registry.add_gauge_max("spill.merge_fan_in", result.log_runs.size(),
                                    /*stable=*/false);
    }
    if (config_.spill.checkpoint) {
      result.registry.add_counter("checkpoint.written", result.checkpoints_written,
                                  /*stable=*/false);
      result.registry.add_counter("checkpoint.resumed", result.shards_resumed,
                                  /*stable=*/false);
    }
    if (config_.traffic.any()) {
      // Pure functions of the config — shard/thread invariant, so stable.
      std::uint64_t total_arrivals = 0;
      if (arrivals_) {
        for (const auto& user_arrivals : *arrivals_) total_arrivals += user_arrivals.size();
      }
      result.registry.add_counter("traffic.arrivals", total_arrivals);
      result.registry.add_counter("traffic.slowdown_windows",
                                  config_.traffic.faults.slowdowns.size());
      result.registry.add_counter("traffic.flush_events",
                                  config_.traffic.faults.flush_times_us.size());
      result.registry.add_counter("traffic.churn_windows",
                                  config_.traffic.faults.churns.size());
    }
  }
  if (pool_ptr != nullptr && collect) obs::export_pool(pool_obs, result.registry);
  if (trace_on) {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      result.trace.ops.append(op_rings[s]);
      result.trace.stages.append(stage_rings[s]);
    }
    result.trace.pool = obs::TraceRing(pool_obs.spans.size());
    obs::pool_spans_into(pool_obs, result.trace.pool);
  }
  result.pool = std::move(pool_obs);
  return result;
}

}  // namespace wlgen::runner
