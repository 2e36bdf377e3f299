// Microbenchmark (google-benchmark): end-to-end USIM throughput — simulated
// sessions and system calls per wall-clock second, the figure of merit for
// whether the generator itself is cheap enough to drive large studies.

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "runner/universe.h"

namespace {

using namespace wlgen;

void BM_UsimSessions(benchmark::State& state) {
  runner::WorkloadConfig workload;
  workload.resolve();  // NFS, the DI86 profiles, the default population
  core::UsimConfig config;
  config.num_users = static_cast<std::size_t>(state.range(0));
  config.sessions_per_user = 5;
  config.collect_log = false;  // measure the simulator, not the log
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  for (auto _ : state) {
    sim::Simulation simulation;
    const runner::UniverseRun run = runner::run_universe(simulation, workload, config);
    ops += run.ops;
    sessions += run.sessions;
  }
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["sessions/s"] =
      benchmark::Counter(static_cast<double>(sessions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UsimSessions)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

WLGEN_BENCHMARK_MAIN();
