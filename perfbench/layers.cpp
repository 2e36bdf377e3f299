// perfbench_layers — the benchmark's traced driver.
//
// Re-drives one wlgen workload through the layers' public entry points, in
// the same order and with the same pool width as the runner it mirrors
// (runner::ShardedRunner, runner::ContendedRunner or core::TraceReplayer),
// and attributes the time to layers with spans taken around those calls:
//
//   * fsmodel  — a FileSystemModel decorator timing every plan();
//   * log_sink — a LogSink decorator over MemorySink / SpillSink;
//   * fsc, usim, runner hook, pool, fold, merge, analysis and output —
//     spans around the calls themselves.
//
// The driver writes the same artifact as the untraced wlgen_cli run (usage
// log, stats digest or replay report), so run.py can prove it measured the
// same computation by comparing checksums.
//
//   perfbench_layers trace run --users N --sessions N --shards K --threads T
//                              --seed S --model M --log FILE
//   perfbench_layers trace scenario FILE.scn
//   perfbench_layers trace replay TRACE --model M --out FILE
//   perfbench_layers setup <run|scenario|replay> ...   (same arguments)
//
// `trace` prints one JSON object of layer metrics; `setup` repeats only the
// work done before the first simulated call and prints its median time.
// Exit status: 0 on success, 1 on bad usage or any failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/replay.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "runner/contended_runner.h"
#include "runner/merge.h"
#include "runner/model_factory.h"
#include "runner/partition.h"
#include "runner/pool.h"
#include "runner/sharded_runner.h"
#include "runner/stats.h"
#include "scenario/spec.h"
#include "stats/sketch.h"
#include "stats/summary.h"
#include "traffic/traffic.h"
#include "util/args.h"
#include "util/svg.h"
#include "util/table.h"

namespace {

using namespace wlgen;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Mean duration of an empty span (two back-to-back clock reads).  Leaf
/// layers timed once per call subtract it per call, so a layer whose real
/// work is a few nanoseconds (an in-memory append) is not reported as the
/// clock's own cost.
double empty_span_s() {
  constexpr int kReps = 200000;
  double total = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    total += since(t0);
  }
  return total / kReps;
}

/// Per-worker layer accumulators; each pool worker owns one, so the hot
/// path takes no lock.  Folded after the pool joins.
struct LayerTimes {
  double fsc_s = 0.0;
  std::uint64_t fsc_files = 0;
  double usim_s = 0.0;  ///< UserSimulator construction + run(), children included
  std::uint64_t usim_ops = 0;
  std::uint64_t usim_sessions = 0;
  std::uint64_t rng_draws = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t heap_high_water = 0;
  double fsmodel_s = 0.0;
  std::uint64_t plans = 0;
  double sink_s = 0.0;
  std::uint64_t sink_calls = 0;
  std::uint64_t sink_records = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_runs = 0;
  double hook_s = 0.0;
  std::uint64_t hook_calls = 0;
  double assign_s = 0.0;
  std::uint64_t arrivals = 0;

  void merge(const LayerTimes& o) {
    fsc_s += o.fsc_s;
    fsc_files += o.fsc_files;
    usim_s += o.usim_s;
    usim_ops += o.usim_ops;
    usim_sessions += o.usim_sessions;
    rng_draws += o.rng_draws;
    sim_events += o.sim_events;
    heap_high_water = std::max(heap_high_water, o.heap_high_water);
    fsmodel_s += o.fsmodel_s;
    plans += o.plans;
    sink_s += o.sink_s;
    sink_calls += o.sink_calls;
    sink_records += o.sink_records;
    spill_bytes += o.spill_bytes;
    spill_runs += o.spill_runs;
    hook_s += o.hook_s;
    hook_calls += o.hook_calls;
    assign_s += o.assign_s;
    arrivals += o.arrivals;
  }
};

/// Hands each pool worker its own LayerTimes slot.
class WorkerSlots {
 public:
  LayerTimes& claim() {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.push_back(std::make_unique<LayerTimes>());
    return *slots_.back();
  }
  LayerTimes folded() const {
    LayerTimes total;
    for (const auto& slot : slots_) total.merge(*slot);
    return total;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<LayerTimes>> slots_;
};

/// FileSystemModel decorator: times the wrapped model's plan().  The
/// decorator's own plan() applies the service scale (fault slowdowns are
/// installed on the decorator), and the wrapped model keeps scale 1, so
/// every stage is scaled exactly once, as in an undecorated run.
class TimedModel final : public fsmodel::FileSystemModel {
 public:
  TimedModel(std::unique_ptr<fsmodel::FileSystemModel> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  void flush_caches() override { inner_->flush_caches(); }
  std::string name() const override { return inner_->name(); }
  std::string stats_summary() const override { return inner_->stats_summary(); }
  void reset_stats() override { inner_->reset_stats(); }

 protected:
  sim::StageChain plan_op(const fsmodel::FsOp& op) override {
    const auto t0 = Clock::now();
    sim::StageChain chain = inner_->plan(op);
    times_.fsmodel_s += since(t0);
    ++times_.plans;
    return chain;
  }

 private:
  std::unique_ptr<fsmodel::FileSystemModel> inner_;
  LayerTimes& times_;
};

/// LogSink decorator: times append() and close() on the wrapped sink.
class TimedSink final : public core::LogSink {
 public:
  TimedSink(core::LogSink& inner, LayerTimes& times) : inner_(inner), times_(times) {}

  void append(const core::OpRecord& record) override {
    const auto t0 = Clock::now();
    inner_.append(record);
    times_.sink_s += since(t0);
    ++times_.sink_calls;
    ++times_.sink_records;
  }
  void close() override {
    const auto t0 = Clock::now();
    inner_.close();
    times_.sink_s += since(t0);
    ++times_.sink_calls;
  }

 private:
  core::LogSink& inner_;
  LayerTimes& times_;
};

/// LogReader decorator: times next() on the wrapped reader (the k-way merge
/// of a spilled run set).
class TimedReader final : public core::LogReader {
 public:
  explicit TimedReader(std::unique_ptr<core::LogReader> inner) : inner_(std::move(inner)) {}

  bool next(core::OpRecord& out) override {
    const auto t0 = Clock::now();
    const bool more = inner_->next(out);
    busy_s += since(t0);
    if (more) ++records;
    ++calls;
    return more;
  }

  double busy_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t calls = 0;

 private:
  std::unique_ptr<core::LogReader> inner_;
};

/// Everything the driver reports, in output order.
class Report {
 public:
  void set(const std::string& name, double value) { at(name) = value; }
  void add(const std::string& name, double value) { at(name) += value; }

  std::string json() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.17g", values_[i].second);
      out << (i ? ", " : "") << "\"" << values_[i].first << "\": " << buffer;
    }
    out << "}";
    return out.str();
  }

 private:
  double& at(const std::string& name) {
    for (auto& entry : values_) {
      if (entry.first == name) return entry.second;
    }
    values_.emplace_back(name, 0.0);
    return values_.back().second;
  }

  std::vector<std::pair<std::string, double>> values_;
};

double per_ns(double seconds, std::uint64_t count) {
  return count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(count);
}

/// Folds one pool's worker accumulators into the report.  usim.busy_s is
/// self time: the decorated children (fsmodel, log sink, record hook) are
/// subtracted.  Leaf layers drop the calibrated cost of their own spans.
void report_layers(Report& report, const LayerTimes& t, double span_s) {
  const double fsmodel_s =
      std::max(0.0, t.fsmodel_s - span_s * static_cast<double>(t.plans));
  const double sink_s = std::max(0.0, t.sink_s - span_s * static_cast<double>(t.sink_calls));
  const double hook_s = std::max(0.0, t.hook_s - span_s * static_cast<double>(t.hook_calls));
  const double usim_self = std::max(0.0, t.usim_s - t.fsmodel_s - t.sink_s - t.hook_s);
  report.add("traffic.assign_s", t.assign_s);
  report.add("traffic.arrivals", static_cast<double>(t.arrivals));
  report.set("fsc.busy_s", t.fsc_s);
  report.set("fsc.files", static_cast<double>(t.fsc_files));
  report.set("fsc.ns_per_file", per_ns(t.fsc_s, t.fsc_files));
  report.set("usim.busy_s", usim_self);
  report.set("usim.ops", static_cast<double>(t.usim_ops));
  report.set("usim.sessions", static_cast<double>(t.usim_sessions));
  report.set("usim.ns_per_op", per_ns(usim_self, t.usim_ops));
  report.set("dist.rng_draws", static_cast<double>(t.rng_draws));
  report.set("sim.events", static_cast<double>(t.sim_events));
  report.set("sim.heap_high_water", static_cast<double>(t.heap_high_water));
  report.set("fsmodel.busy_s", fsmodel_s);
  report.set("fsmodel.plans", static_cast<double>(t.plans));
  report.set("fsmodel.ns_per_plan", per_ns(fsmodel_s, t.plans));
  report.set("log_sink.busy_s", sink_s);
  report.set("log_sink.records", static_cast<double>(t.sink_records));
  report.set("log_sink.spill_bytes", static_cast<double>(t.spill_bytes));
  report.set("log_sink.spill_runs", static_cast<double>(t.spill_runs));
  report.set("runner.hook_busy_s", hook_s);
}

void report_pool(Report& report, const runner::PoolObs& pool, double pool_wall_s) {
  const double busy = static_cast<double>(pool.busy_ns()) * 1e-9;
  // Idle = worker capacity the pool span offered but no job used: a worker
  // that ran out of jobs early counts as idle until the slowest one ends.
  const double capacity = pool_wall_s * static_cast<double>(pool.workers.size());
  report.set("runner.pool_busy_s", busy);
  report.set("runner.pool_idle_s", std::max(0.0, capacity - busy));
}

/// Shortest exact decimal text of a double (scenario/run.cpp's digest form).
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One measured point of a scenario stats digest (scenario::PointOutcome).
struct DigestPoint {
  std::size_t users = 0;
  runner::RunnerStats stats;
  stats::MeanCi response_per_byte;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
};

/// The `[output] stats` digest text of a single-model scenario, in the
/// format scenario::run_scenario writes.
std::string scenario_digest(const scenario::ScenarioSpec& spec,
                            const std::vector<DigestPoint>& points,
                            const stats::QuantileSketch& sketch) {
  std::ostringstream out;
  out << "scenario " << spec.name << " mode=" << scenario::to_string(spec.mode)
      << " seed=" << spec.seed << "\n";
  out << "model " << spec.models.front().name << "\n";
  for (const auto& p : points) {
    out << "point users=" << p.users << " ops=" << p.ops << " sessions=" << p.sessions
        << " bytes=" << p.stats.bytes_moved() << "\n";
    const auto& r = p.stats.response_us();
    out << "  response_us count=" << r.count() << " mean=" << exact(r.mean())
        << " stddev=" << exact(r.stddev()) << " min=" << exact(r.min())
        << " max=" << exact(r.max()) << "\n";
    const auto& a = p.stats.access_size();
    out << "  access_size count=" << a.count() << " mean=" << exact(a.mean())
        << " stddev=" << exact(a.stddev()) << "\n";
    out << "  response_per_byte pooled=" << exact(p.stats.response_per_byte_us())
        << " mean=" << exact(p.response_per_byte.mean)
        << " ci_half=" << exact(p.response_per_byte.half_width) << "\n";
  }
  if (sketch.count() > 0) {
    out << "  response_sketch count=" << sketch.count()
        << " p50=" << exact(sketch.quantile(0.50)) << " p90=" << exact(sketch.quantile(0.90))
        << " p99=" << exact(sketch.quantile(0.99)) << "\n";
  }
  return out.str();
}

/// The analysis tables `wlgen run` / `wlgen replay` print.
std::string analysis_text(const core::UsageAnalyzer& analyzer) {
  util::TextTable ops({"op", "count", "access size mean(std)", "response us mean(std)"});
  for (const auto& [op, s] : analyzer.per_op_stats()) {
    ops.add_row({fsmodel::to_string(op), std::to_string(s.response_us.count()),
                 s.access_size.count() ? s.access_size.mean_std_string() : "-",
                 s.response_us.mean_std_string()});
  }
  util::TextTable summary({"metric", "value"});
  summary.add_row({"system calls", std::to_string(analyzer.op_count())});
  summary.add_row({"sessions", std::to_string(analyzer.sessions().size())});
  summary.add_row(
      {"access size B mean(std)",
       analyzer.access_size_stats().count() ? analyzer.access_size_stats().mean_std_string() : "-"});
  summary.add_row({"response us mean(std)", analyzer.response_stats().mean_std_string()});
  summary.add_row(
      {"response per byte us", util::TextTable::num(analyzer.response_per_byte_us(), 4)});
  return ops.render() + "\n" + summary.render();
}

void write_output(Report& report, const std::string& path, const std::string& text,
                  double build_s) {
  const auto t0 = Clock::now();
  util::write_text_file(path, text);
  report.add("output.write_s", build_s + since(t0));
  report.add("output.write_bytes", static_cast<double>(text.size()));
}

// ---------------------------------------------------------------------------
// Sharded mirror (runner::ShardedRunner::run / run_user)
// ---------------------------------------------------------------------------

std::string shard_stem(std::size_t shard) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "shard%06zu", shard);
  return buffer;
}

struct UserSlot {
  explicit UserSlot(runner::HistogramSpec spec) : stats(spec) {}
  runner::RunnerStats stats;
  core::UsageLog log;
  double simulated_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
};

/// State of a sharded run at the moment its pool starts.
struct ShardedRun {
  runner::RunnerConfig config;
  std::vector<runner::UserRange> ranges;
  std::shared_ptr<const std::vector<std::vector<double>>> arrivals;
  std::vector<UserSlot> users;
  std::vector<stats::QuantileSketch> sketches;
  double assign_s = 0.0;
  std::uint64_t arrival_count = 0;
};

/// Applies ShardedRunner's constructor defaults and checks, then does the
/// run() work before the pool: partition, arrival timeline, result slots.
std::unique_ptr<ShardedRun> prepare_sharded(runner::RunnerConfig config) {
  if (config.num_users == 0 || config.shards == 0) {
    throw std::invalid_argument("sharded run needs >= 1 user and >= 1 shard");
  }
  if (config.spill.checkpoint || config.spill.resume) {
    throw std::invalid_argument("the traced driver does not mirror checkpoint/resume");
  }
  if (config.profiles.empty()) config.profiles = core::di86_file_profiles();
  if (config.population.groups.empty()) config.population = core::default_population();
  if (!config.model_factory) config.model_factory = runner::nfs_model_factory();
  config.traffic.validate();

  auto run = std::make_unique<ShardedRun>();
  run->ranges = runner::partition_users(config.num_users, config.shards);
  if (config.traffic.arrivals) {
    const auto t0 = Clock::now();
    run->arrivals = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config.traffic.arrivals, config.num_users, config.seed));
    run->assign_s = since(t0);
    for (const auto& user : *run->arrivals) run->arrival_count += user.size();
  }
  run->users.assign(config.num_users, UserSlot(config.histogram));
  run->sketches.resize(run->ranges.size());
  if (config.spill.enabled) std::filesystem::create_directories(config.spill.spool_dir);
  run->config = std::move(config);
  return run;
}

void run_user(const ShardedRun& run, sim::Simulation& sim, std::size_t user, UserSlot& out,
              core::LogSink* shard_sink, stats::QuantileSketch& sketch, LayerTimes& times) {
  const runner::RunnerConfig& config = run.config;
  sim.reset();

  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&sim] { return sim.now(); });
  TimedModel model(config.model_factory(sim), times);
  if (config.traffic.faults.any()) traffic::install_faults(sim, model, config.traffic.faults);

  core::FscConfig fsc_config = config.fsc;
  fsc_config.num_users = 1;
  fsc_config.first_user = user;
  fsc_config.seed = config.seed;
  const auto fsc_start = Clock::now();
  core::FileSystemCreator fsc(fsys, config.profiles, fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  times.fsc_s += since(fsc_start);
  times.fsc_files += manifest.file_count();

  core::MemorySink memory;
  TimedSink sink(shard_sink != nullptr ? *shard_sink : memory, times);
  core::UsimConfig usim_config = config.usim;
  usim_config.num_users = 1;
  usim_config.first_user = user;
  usim_config.population_users = config.num_users;
  usim_config.seed = config.seed;
  usim_config.collect_log = config.collect_log;
  usim_config.sink = shard_sink != nullptr || config.collect_log ? &sink : nullptr;
  usim_config.arrival_times_us = run.arrivals;
  usim_config.churn = config.traffic.faults.churns;
  usim_config.on_record = [&out, &sketch, &times](const core::OpRecord& r) {
    const auto t0 = Clock::now();
    out.stats.add(r);
    sketch.add(r.response_us);
    times.hook_s += since(t0);
    ++times.hook_calls;
  };

  const auto usim_start = Clock::now();
  core::UserSimulator usim(sim, fsys, model, manifest, config.population, usim_config);
  usim.run();
  times.usim_s += since(usim_start);

  if (shard_sink == nullptr) out.log = memory.take_log();
  out.simulated_us = sim.now();
  out.ops = usim.total_ops();
  out.sessions = usim.sessions_completed();
  times.usim_ops += out.ops;
  times.usim_sessions += out.sessions;
  times.rng_draws += usim.rng_draws();
  times.sim_events += sim.events_processed();
  times.heap_high_water =
      std::max<std::uint64_t>(times.heap_high_water, sim.arena_high_water());
}

/// The pool phase: shards drained over config.threads workers.  Returns the
/// per-shard spill sinks (empty slots when not spilling).
std::vector<std::unique_ptr<core::SpillSink>> pool_sharded(ShardedRun& run, Report& report,
                                                           double span_s) {
  const runner::RunnerConfig& config = run.config;
  const bool spill = config.spill.enabled;
  std::vector<std::unique_ptr<core::SpillSink>> sinks(run.ranges.size());
  WorkerSlots slots;
  runner::PoolObs pool;
  const auto pool_start = Clock::now();
  runner::drain_pool(run.ranges.size(), config.threads, [&]() -> runner::PoolJob {
    LayerTimes& times = slots.claim();
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t s, const std::atomic<bool>& cancelled) {
      std::unique_ptr<TimedSink> shard_sink;
      if (spill) {
        sinks[s] = std::make_unique<core::SpillSink>(config.spill.spool_dir, shard_stem(s),
                                                     config.spill.buffer_records);
        shard_sink = std::make_unique<TimedSink>(*sinks[s], times);
      }
      for (std::size_t u = run.ranges[s].begin; u < run.ranges[s].end; ++u) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        run_user(run, *sim, u, run.users[u], sinks[s].get(), run.sketches[s], times);
      }
      if (shard_sink) {
        // Records arrived through the per-user TimedSink; close() is the
        // shard's final run cut.
        shard_sink->close();
        times.spill_bytes += sinks[s]->bytes_written();
        times.spill_runs += sinks[s]->runs().size();
      }
    };
  }, &pool);
  const double pool_s = since(pool_start);
  report.set("phase.pool_s", pool_s);
  report_pool(report, pool, pool_s);
  report_layers(report, slots.folded(), span_s);
  return sinks;
}

/// Outcome of the deterministic fold (ShardedRunner::run after the pool).
struct ShardedFold {
  runner::RunnerStats stats;
  std::uint64_t total_ops = 0;
  std::uint64_t sessions = 0;
  core::UsageLog log;  ///< merged in-memory log (empty when spilled)
  std::vector<core::SpillRun> spilled_runs;
  stats::QuantileSketch sketch;
};

ShardedFold fold_sharded(ShardedRun& run,
                         const std::vector<std::unique_ptr<core::SpillSink>>& sinks,
                         Report& report) {
  const runner::RunnerConfig& config = run.config;
  const bool spill = config.spill.enabled;
  const bool merge_in_memory = config.collect_log && !spill;
  ShardedFold fold;
  fold.stats = runner::RunnerStats(config.histogram);

  const auto fold_start = Clock::now();
  std::vector<core::UsageLog> user_logs;
  if (merge_in_memory) user_logs.reserve(config.num_users);
  for (auto& user : run.users) {
    fold.stats.merge(user.stats);
    fold.total_ops += user.ops;
    fold.sessions += user.sessions;
    if (merge_in_memory) user_logs.push_back(std::move(user.log));
  }
  if (spill) {
    for (const auto& sink : sinks) {
      fold.spilled_runs.insert(fold.spilled_runs.end(), sink->runs().begin(), sink->runs().end());
    }
  }
  for (const auto& sketch : run.sketches) fold.sketch.merge(sketch);
  report.set("runner.fold_s", since(fold_start));

  if (merge_in_memory) {
    const auto merge_start = Clock::now();
    fold.log = runner::merge_user_logs(std::move(user_logs));
    report.set("runner.merge_s", since(merge_start));
    report.set("runner.merge_records", static_cast<double>(fold.log.size()));
  }
  return fold;
}

// ---------------------------------------------------------------------------
// Contended mirror (runner::ContendedRunner::run / run_replication)
// ---------------------------------------------------------------------------

struct JobSlot {
  explicit JobSlot(runner::HistogramSpec spec) : stats(spec) {}
  runner::RunnerStats stats;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
};

struct ContendedRun {
  runner::ContendedConfig config;
  std::vector<JobSlot> jobs;
};

std::unique_ptr<ContendedRun> prepare_contended(runner::ContendedConfig config) {
  if (config.user_points.empty() || config.replications == 0) {
    throw std::invalid_argument("contended run needs >= 1 point and >= 1 replication");
  }
  if (config.profiles.empty()) config.profiles = core::di86_file_profiles();
  if (config.population.groups.empty()) config.population = core::default_population();
  if (!config.model_factory) config.model_factory = runner::nfs_model_factory();
  config.traffic.validate();
  auto run = std::make_unique<ContendedRun>();
  run->jobs.assign(config.user_points.size() * config.replications, JobSlot(config.histogram));
  run->config = std::move(config);
  return run;
}

void run_replication(const runner::ContendedConfig& config, sim::Simulation& sim,
                     std::size_t users, std::uint64_t seed, JobSlot& out, LayerTimes& times) {
  sim.reset();

  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&sim] { return sim.now(); });
  TimedModel model(config.model_factory(sim), times);
  if (config.tune_model) config.tune_model(model);
  if (config.traffic.faults.any()) traffic::install_faults(sim, model, config.traffic.faults);

  core::FscConfig fsc_config = config.fsc;
  fsc_config.num_users = users;
  fsc_config.first_user = 0;
  fsc_config.seed = seed;
  const auto fsc_start = Clock::now();
  core::FileSystemCreator fsc(fsys, config.profiles, fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  times.fsc_s += since(fsc_start);
  times.fsc_files += manifest.file_count();

  core::UsimConfig usim_config = config.usim;
  usim_config.num_users = users;
  usim_config.first_user = 0;
  usim_config.population_users = users;
  usim_config.seed = seed;
  usim_config.collect_log = false;
  if (config.traffic.arrivals) {
    const auto t0 = Clock::now();
    auto arrivals = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config.traffic.arrivals, users, seed));
    times.assign_s += since(t0);
    for (const auto& user : *arrivals) times.arrivals += user.size();
    usim_config.arrival_times_us = std::move(arrivals);
  }
  usim_config.churn = config.traffic.faults.churns;
  usim_config.on_record = [&out, &times](const core::OpRecord& r) {
    const auto t0 = Clock::now();
    out.stats.add(r);
    times.hook_s += since(t0);
    ++times.hook_calls;
  };

  const auto usim_start = Clock::now();
  core::UserSimulator usim(sim, fsys, model, manifest, config.population, usim_config);
  usim.run();
  times.usim_s += since(usim_start);

  out.ops = usim.total_ops();
  out.sessions = usim.sessions_completed();
  times.usim_ops += out.ops;
  times.usim_sessions += out.sessions;
  times.rng_draws += usim.rng_draws();
  times.sim_events += sim.events_processed();
  times.heap_high_water =
      std::max<std::uint64_t>(times.heap_high_water, sim.arena_high_water());
}

void pool_contended(ContendedRun& run, Report& report, double span_s) {
  const runner::ContendedConfig& config = run.config;
  const std::size_t reps = config.replications;
  WorkerSlots slots;
  runner::PoolObs pool;
  const auto pool_start = Clock::now();
  runner::drain_pool(run.jobs.size(), config.threads, [&]() -> runner::PoolJob {
    LayerTimes& times = slots.claim();
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t j, const std::atomic<bool>& cancelled) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t users = config.user_points[j / reps];
      const std::uint64_t seed = runner::replication_seed(config.seed, j % reps);
      run_replication(config, *sim, users, seed, run.jobs[j], times);
    };
  }, &pool);
  const double pool_s = since(pool_start);
  report.set("phase.pool_s", pool_s);
  report_pool(report, pool, pool_s);
  report_layers(report, slots.folded(), span_s);
}

std::vector<DigestPoint> fold_contended(const ContendedRun& run, Report& report) {
  const runner::ContendedConfig& config = run.config;
  const std::size_t reps = config.replications;
  const auto fold_start = Clock::now();
  std::vector<DigestPoint> points;
  for (std::size_t p = 0; p < config.user_points.size(); ++p) {
    DigestPoint point;
    point.users = config.user_points[p];
    point.stats = runner::RunnerStats(config.histogram);
    std::vector<double> levels;
    for (std::size_t r = 0; r < reps; ++r) {
      const JobSlot& job = run.jobs[p * reps + r];
      point.stats.merge(job.stats);
      levels.push_back(job.stats.response_per_byte_us());
      point.ops += job.ops;
      point.sessions += job.sessions;
    }
    point.response_per_byte = stats::mean_confidence_interval(levels, config.confidence);
    points.push_back(std::move(point));
  }
  report.set("runner.fold_s", since(fold_start));
  return points;
}

// ---------------------------------------------------------------------------
// Front ends: the three wlgen commands the benchmark drives
// ---------------------------------------------------------------------------

/// `wlgen run --shards ...` (tools/wlgen_cli.cpp cmd_run + cmd_run_sharded),
/// restricted to the flags the benchmark uses.
runner::RunnerConfig cli_run_config(const util::Args& args) {
  args.require_known({"users", "sessions", "shards", "threads", "seed", "model", "log"});
  const std::size_t users = args.count("users", 1);
  const std::size_t sessions = args.count("sessions", 50);
  const auto seed = static_cast<std::uint64_t>(args.count("seed", 1991));

  core::UsimConfig usim;
  usim.num_users = users;
  usim.sessions_per_user = sessions;
  usim.seed = seed;

  runner::RunnerConfig config;
  config.num_users = users;
  config.shards = args.count("shards", 1);
  config.threads = args.count("threads", 0);
  config.seed = seed;
  config.usim = std::move(usim);
  config.population = core::mixed_population(1.0);  // the CLI's --heavy default
  config.model_factory = runner::model_factory_by_name(args.get("model", "nfs"));
  return config;
}

/// The single-model RunnerConfig scenario::run_scenario builds for a
/// sharded spec (threads: the whole budget goes to the one backend).
runner::RunnerConfig scenario_sharded_config(const scenario::ScenarioSpec& spec) {
  const scenario::ModelChoice& model = spec.models.front();
  runner::RunnerConfig config;
  config.num_users = spec.user_points.front();
  config.shards = spec.shards;
  config.threads = runner::resolve_pool_threads(spec.threads, std::numeric_limits<std::size_t>::max());
  config.seed = spec.seed;
  config.usim = spec.usim_config();
  config.population = spec.population();
  config.collect_log = spec.collect_log;
  config.model_factory = model.factory();
  config.traffic = spec.traffic;
  if (spec.log_spill) {
    config.spill.enabled = true;
    config.spill.spool_dir = spec.log_spool_dir;
  }
  return config;
}

runner::ContendedConfig scenario_contended_config(const scenario::ScenarioSpec& spec) {
  runner::ContendedConfig config;
  config.user_points = spec.user_points;
  config.replications = spec.replications;
  config.threads = runner::resolve_pool_threads(spec.threads, std::numeric_limits<std::size_t>::max());
  config.seed = spec.seed;
  config.confidence = spec.confidence;
  config.usim = spec.usim_config();
  config.population = spec.population();
  config.model_factory = spec.models.front().factory();
  config.traffic = spec.traffic;
  return config;
}

scenario::ScenarioSpec parse_scenario(const std::string& path, Report& report) {
  const auto t0 = Clock::now();
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_file(path);
  report.set("scenario.parse_s", since(t0));
  if (spec.models.size() != 1) {
    throw std::invalid_argument(path + ": the traced driver mirrors single-model scenarios");
  }
  if (spec.mode == scenario::RunMode::replay) {
    throw std::invalid_argument(path + ": replay scenarios are driven by `replay`, not `scenario`");
  }
  if (spec.resume || spec.log_checkpoint) {
    throw std::invalid_argument(path + ": the traced driver does not mirror checkpoint/resume");
  }
  return spec;
}

struct Trace {
  core::UsageLog log;
  runner::ModelFactory factory;
};

Trace load_trace(const util::Args& args, Report& report) {
  args.require_known({"model", "out"});
  if (args.positional.size() != 1) throw std::invalid_argument("replay needs one trace file");
  Trace trace;
  const auto t0 = Clock::now();
  trace.log = core::UsageLog::parse(util::read_text_file(args.positional.front()));
  report.set("output.parse_s", since(t0));
  report.set("output.parse_records", static_cast<double>(trace.log.size()));
  trace.factory = runner::model_factory_by_name(args.get("model", "nfs"));
  return trace;
}

/// `setup`: one set-up of the workload, discarded; returns its duration.
double setup_once(const std::string& mode, const util::Args& args) {
  Report scratch;
  const auto t0 = Clock::now();
  if (mode == "run") {
    const auto run = prepare_sharded(cli_run_config(args));
  } else if (mode == "scenario") {
    const scenario::ScenarioSpec spec = parse_scenario(args.positional.at(0), scratch);
    if (spec.mode == scenario::RunMode::sharded) {
      const auto run = prepare_sharded(scenario_sharded_config(spec));
    } else {
      const auto run = prepare_contended(scenario_contended_config(spec));
    }
  } else if (mode == "replay") {
    const Trace trace = load_trace(args, scratch);
  } else {
    throw std::invalid_argument("unknown mode '" + mode + "' (run|scenario|replay)");
  }
  return since(t0);
}

// Each trace_* function fills `report` with the phase spans and layer
// metrics of one traced run and writes the run's artifact.

void trace_run(const util::Args& args, Report& report, double span_s) {
  const std::string log_path = args.get("log", "");
  if (log_path.empty()) throw std::invalid_argument("run needs --log FILE");
  const auto setup_start = Clock::now();
  auto run = prepare_sharded(cli_run_config(args));
  report.set("traffic.assign_s", run->assign_s);
  report.set("traffic.arrivals", static_cast<double>(run->arrival_count));
  report.set("phase.setup_s", since(setup_start));

  const auto sinks = pool_sharded(*run, report, span_s);

  const auto tail_start = Clock::now();
  {
    ShardedFold fold = fold_sharded(*run, sinks, report);
    run.reset();
    const auto analysis_start = Clock::now();
    core::MemoryLogReader reader(fold.log);
    const core::UsageAnalyzer analyzer(reader);
    report.set("analysis.busy_s", since(analysis_start));
    report.set("analysis.records", static_cast<double>(analyzer.op_count()));

    // The CLI prints the analysis tables, then writes the --log text.
    const auto write_start = Clock::now();
    const std::string tables = analysis_text(analyzer);
    std::ostringstream text;
    core::MemoryLogReader log_reader(fold.log);
    core::write_log_text(log_reader, text);
    const std::string body = text.str();
    write_output(report, log_path, body, since(write_start));
  }
  report.set("phase.tail_s", since(tail_start));
}

void trace_scenario(const util::Args& args, Report& report, double span_s) {
  args.require_known({});
  if (args.positional.size() != 1) throw std::invalid_argument("scenario needs one .scn file");
  const auto setup_start = Clock::now();
  const scenario::ScenarioSpec spec = parse_scenario(args.positional.front(), report);

  if (spec.mode == scenario::RunMode::contended) {
    auto run = prepare_contended(scenario_contended_config(spec));
    report.set("phase.setup_s", since(setup_start));
    pool_contended(*run, report, span_s);
    const auto tail_start = Clock::now();
    const std::vector<DigestPoint> points = fold_contended(*run, report);
    const auto write_start = Clock::now();
    const std::string digest = scenario_digest(spec, points, stats::QuantileSketch{});
    if (!spec.stats_file.empty()) write_output(report, spec.stats_file, digest, since(write_start));
    run.reset();
    report.set("phase.tail_s", since(tail_start));
    return;
  }

  auto run = prepare_sharded(scenario_sharded_config(spec));
  report.set("traffic.assign_s", run->assign_s);
  report.set("traffic.arrivals", static_cast<double>(run->arrival_count));
  report.set("phase.setup_s", since(setup_start));

  const auto sinks = pool_sharded(*run, report, span_s);

  const auto tail_start = Clock::now();
  {
    ShardedFold fold = fold_sharded(*run, sinks, report);
    run.reset();
    DigestPoint point;
    point.users = spec.user_points.front();
    point.stats = fold.stats;
    point.response_per_byte = {fold.stats.response_per_byte_us(), 0.0, 1};
    point.ops = fold.total_ops;
    point.sessions = fold.sessions;
    const auto digest_start = Clock::now();
    const std::string digest = scenario_digest(spec, {point}, fold.sketch);
    const double digest_s = since(digest_start);

    if (!spec.log_file.empty()) {
      const auto write_start = Clock::now();
      std::ostringstream text;
      if (!fold.spilled_runs.empty()) {
        TimedReader reader(core::open_spilled_log(fold.spilled_runs));
        core::write_log_text(reader, text);
        const std::string body = text.str();
        const double merge_s =
            std::max(0.0, reader.busy_s - span_s * static_cast<double>(reader.calls));
        report.set("runner.merge_s", merge_s);
        report.set("runner.merge_records", static_cast<double>(reader.records));
        write_output(report, spec.log_file, body, since(write_start) - merge_s);
      } else {
        write_output(report, spec.log_file, fold.log.serialize(), since(write_start));
      }
    }
    if (!spec.stats_file.empty()) write_output(report, spec.stats_file, digest, digest_s);
  }
  report.set("phase.tail_s", since(tail_start));
}

void trace_replay(const util::Args& args, Report& report, double span_s) {
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) throw std::invalid_argument("replay needs --out FILE");
  const auto setup_start = Clock::now();
  auto trace = std::make_unique<Trace>(load_trace(args, report));
  report.set("phase.setup_s", since(setup_start));

  // Replay is serial: the replayer is the whole "pool" phase.
  const auto pool_start = Clock::now();
  LayerTimes times;
  sim::Simulation simulation;
  TimedModel model(trace->factory(simulation), times);
  core::TraceReplayer replayer(simulation, model, trace->log);
  core::TraceReplayer::Options options;
  options.preserve_timing = true;
  options.time_scale = 1.0;
  auto replayed = std::make_unique<core::UsageLog>(replayer.run(options));
  const double replay_s = since(pool_start);
  report.set("phase.pool_s", replay_s);
  report_layers(report, times, span_s);
  report.set("replay.busy_s", std::max(0.0, replay_s - times.fsmodel_s));
  report.set("replay.ops", static_cast<double>(replayer.ops_replayed()));
  report.set("sim.events", static_cast<double>(simulation.events_processed()));
  report.set("sim.heap_high_water", static_cast<double>(simulation.arena_high_water()));

  const auto tail_start = Clock::now();
  {
    const auto analysis_start = Clock::now();
    const core::UsageAnalyzer analyzer(*replayed);
    report.set("analysis.busy_s", since(analysis_start));
    report.set("analysis.records", static_cast<double>(analyzer.op_count()));
    const auto write_start = Clock::now();
    std::ostringstream text;
    text << "replayed " << replayer.ops_replayed() << " ops (open loop) on " << model.name()
         << "\n\n"
         << analysis_text(analyzer);
    const std::string body = text.str();
    write_output(report, out_path, body, since(write_start));
    replayed.reset();
    trace.reset();
  }
  report.set("phase.tail_s", since(tail_start));
}

int usage() {
  std::cerr << "usage: perfbench_layers <trace|setup> <run|scenario|replay> [arguments]\n"
               "  run      --users N --sessions N --shards K --threads T --seed S --model M"
               " --log FILE\n"
               "  scenario FILE.scn\n"
               "  replay   TRACE --model M --out FILE\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string mode = argv[2];
  try {
    const util::Args args = util::Args::parse(argc, argv, 3);
    if (command == "setup") {
      // Repeat the set-up for kMinSeconds, and at least three times unless
      // set-ups have already taken kMaxSeconds, then report the median: a
      // small workload's set-up lasts microseconds, far below the spread of
      // a single reading, while trace_replay's parse takes about 0.4 s.
      constexpr double kMinSeconds = 0.25;
      constexpr double kMaxSeconds = 1.0;
      std::vector<double> samples;
      const auto start = Clock::now();
      while (samples.empty() ||
             (samples.size() < 3 && since(start) < kMaxSeconds) ||
             (since(start) < kMinSeconds && samples.size() < 100000)) {
        samples.push_back(setup_once(mode, args));
      }
      std::sort(samples.begin(), samples.end());
      const std::size_t n = samples.size();
      const double median =
          n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
      Report report;
      report.set("setup_s", median);
      report.set("reps", static_cast<double>(n));
      std::cout << report.json() << "\n";
      return 0;
    }
    if (command != "trace") return usage();

    // Layers a workload does not exercise are absent; run.py reports them as 0.
    const double span_s = empty_span_s();
    Report report;
    if (mode == "run") {
      trace_run(args, report, span_s);
    } else if (mode == "scenario") {
      trace_scenario(args, report, span_s);
    } else if (mode == "replay") {
      trace_replay(args, report, span_s);
    } else {
      return usage();
    }
    report.set("timer.span_ns", span_s * 1e9);
    std::cout << report.json() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers " << command << " " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
