// Microbenchmark (google-benchmark): scaling of the two parallel runners.
//
// BM_ShardedRunner — wall-clock throughput of the same fixed workload
// (users x sessions against the NFS model, log collection off) as the
// worker-thread count grows.  BM_ContendedRunner — the same question for
// the contended path: a fixed (load points x replications) grid of
// shared-machine simulations drained by a growing pool.  Both are
// scoreboard entries behind the DESIGN.md scaling tables: on an M-core
// machine the /T rate should approach T-fold the /1 rate until T exceeds M
// (on a single-core CI container the curves are flat).  BM_MergeUserLogs,
// BM_WriteLogText and BM_ParseLogText time the serial log tail in isolation;
// BM_WriteLogFile times the text writer on 1, 2 and 4 threads.

#include <benchmark/benchmark.h>

#include <ostream>
#include <random>
#include <streambuf>
#include <string>

#include "bench_main.h"
#include "core/log_sink.h"
#include "runner/contended_runner.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"

namespace {

using namespace wlgen;

constexpr std::size_t kUsers = 24;
constexpr std::size_t kSessions = 4;

// Pool utilization as a percentage: busy / (busy + idle) across all workers.
// Two steady_clock reads per job (obs.pool), invisible at shard granularity.
double busy_pct(std::uint64_t busy_ns, std::uint64_t idle_ns) {
  const double total = static_cast<double>(busy_ns + idle_ns);
  return total > 0.0 ? 100.0 * static_cast<double>(busy_ns) / total : 0.0;
}

void BM_ShardedRunner(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (auto _ : state) {
    runner::RunnerConfig config;
    config.num_users = kUsers;
    config.shards = 4 * threads;  // a few shards per worker
    config.threads = threads;
    config.usim.sessions_per_user = kSessions;
    config.collect_log = false;  // measure the engine, not log retention
    config.obs.pool = true;      // busy/idle split for the utilization column
    runner::ShardedRunner run(std::move(config));
    const auto result = run.run();
    ops += result.total_ops;
    sessions += result.sessions_completed;
    busy_ns += result.pool.busy_ns();
    idle_ns += result.pool.idle_ns();
    benchmark::DoNotOptimize(result.stats.response_us().mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kUsers));
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["sessions/s"] =
      benchmark::Counter(static_cast<double>(sessions), benchmark::Counter::kIsRate);
  // Self-diagnosis for flat scaling curves: saturated workers show ~100,
  // a starved pool (more workers than cores, or skewed shards) shows less.
  state.counters["pool_busy_pct"] = benchmark::Counter(busy_pct(busy_ns, idle_ns));
}
BENCHMARK(BM_ShardedRunner)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Contended-replication scaling: Figures 5.6-5.11's job shape in miniature
// (a users sweep, R replications per point, every job one shared-machine
// Simulation).  Items = replications completed.
void BM_ContendedRunner(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kReplications = 4;
  std::uint64_t ops = 0;
  std::size_t replications = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (auto _ : state) {
    runner::ContendedConfig config;
    config.user_points = {1, 2, 4};
    config.replications = kReplications;
    config.threads = threads;
    config.usim.sessions_per_user = kSessions;
    config.obs.pool = true;
    runner::ContendedRunner run(std::move(config));
    const auto result = run.run();
    ops += result.total_ops;
    replications += result.replications.size();
    busy_ns += result.pool.busy_ns();
    idle_ns += result.pool.idle_ns();
    benchmark::DoNotOptimize(result.points.back().response_per_byte.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replications));
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["pool_busy_pct"] = benchmark::Counter(busy_pct(busy_ns, idle_ns));
}
BENCHMARK(BM_ContendedRunner)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Merge overhead in isolation: the (time, user) stable-sort fold over
// per-user logs, at a size big enough to expose the O(M log M) term.
void BM_MergeUserLogs(benchmark::State& state) {
  const std::size_t users = 64;
  const std::size_t ops_per_user = static_cast<std::size_t>(state.range(0));
  std::vector<core::UsageLog> prototype(users);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t i = 0; i < ops_per_user; ++i) {
      core::OpRecord r;
      r.issue_time_us = static_cast<double>(i * 37 % 1000);
      r.user = static_cast<std::uint32_t>(u);
      prototype[u].append(r);
    }
  }
  for (auto _ : state) {
    std::vector<core::UsageLog> logs = prototype;
    benchmark::DoNotOptimize(runner::merge_user_logs(std::move(logs)).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users * ops_per_user));
}
BENCHMARK(BM_MergeUserLogs)->Arg(1000);

// Usage-log text codec, the serial tail of every `[output] log` run.
// Records have the magnitudes a real log carries (microsecond clocks,
// block-sized transfers); the writer drains into a discarding stream so
// only formatting and buffering are timed, and the parser feeds a counting
// sink so only scanning and number conversion are.
core::UsageLog codec_log(std::size_t records) {
  std::mt19937_64 rng(1991);
  std::exponential_distribution<double> gap(1.0 / 250.0);
  std::uniform_real_distribution<double> response(20.0, 40000.0);
  core::UsageLog log;
  double now = 0.0;
  for (std::size_t i = 0; i < records; ++i) {
    core::OpRecord r;
    now += gap(rng);
    r.issue_time_us = now;
    r.response_us = response(rng);
    r.user = static_cast<std::uint32_t>(rng() % 200);
    r.session = static_cast<std::uint32_t>(rng() % 20);
    r.op = static_cast<fsmodel::FsOpType>(rng() % 10);
    r.requested_bytes = rng() % 65536;
    r.actual_bytes = r.requested_bytes - rng() % (r.requested_bytes + 1);
    r.file_id = rng() % 1000000;
    r.file_size = rng() % 1000000;
    r.category = {static_cast<core::FileType>(rng() % 2),
                  static_cast<core::FileOwner>(rng() % 3),
                  static_cast<core::UseMode>(rng() % 4)};
    log.append(r);
  }
  return log;
}

class DiscardBuffer final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char* /*data*/, std::streamsize size) override { return size; }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

class CountingSink final : public core::LogSink {
 public:
  void append(const core::OpRecord& /*record*/) override { ++records; }
  void close() override {}
  std::uint64_t records = 0;
};

void set_records_rate(benchmark::State& state, std::size_t per_iteration) {
  const auto records = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(per_iteration);
  state.SetItemsProcessed(records);
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}

void BM_WriteLogText(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const core::UsageLog log = codec_log(records);
  DiscardBuffer discard;
  std::ostream out(&discard);
  for (auto _ : state) {
    core::MemoryLogReader reader(log);
    benchmark::DoNotOptimize(core::write_log_text(reader, out));
  }
  set_records_rate(state, records);
}
BENCHMARK(BM_WriteLogText)->Arg(100000)->Unit(benchmark::kMillisecond);

// The same 100 k records through write_log_file to /dev/null, formatted on
// a growing thread budget: /T should approach T-fold the /1 rate until T
// exceeds the cores (the calling thread's read and write stay serial).
void BM_WriteLogFile(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRecords = 100000;
  const core::UsageLog log = codec_log(kRecords);
  for (auto _ : state) {
    core::MemoryLogReader reader(log);
    benchmark::DoNotOptimize(core::write_log_file(reader, "/dev/null", threads));
  }
  set_records_rate(state, kRecords);
}
BENCHMARK(BM_WriteLogFile)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ParseLogText(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string text = codec_log(records).serialize();
  for (auto _ : state) {
    CountingSink sink;
    core::parse_log_text(text, sink);
    benchmark::DoNotOptimize(sink.records);
  }
  set_records_rate(state, records);
}
BENCHMARK(BM_ParseLogText)->Arg(100000)->Unit(benchmark::kMillisecond);

// Scenario-level parallelism: one three-backend sharded scenario, run with a
// growing --threads budget.  run_scenario fans the independent backends over
// the worker pool (scenario/run.cpp), so on an M-core machine the /T time
// should shrink toward 1/min(T, 3, M) of /1 — flat on a single-core
// container (num_cpus in this file's recorded context says which).  The
// stats digest is bit-identical at every thread count; the benchmark only
// measures wall clock.
void BM_ScenarioMultiBackend(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(R"(
[scenario]
name = bench-multi-backend
mode = sharded

[workload]
users = 12
sessions = 3

[sharded]
shards = 4
collect_log = false

[model]
names = nfs, local, wholefile
)");
  for (auto _ : state) {
    scenario::RunOptions options;
    options.threads = threads;
    const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, options);
    benchmark::DoNotOptimize(outcome.stats_digest.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_ScenarioMultiBackend)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

WLGEN_BENCHMARK_MAIN();
