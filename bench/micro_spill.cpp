// Microbenchmark (google-benchmark): population scaling of the streaming
// log pipeline.
//
// BM_SpillPopulation runs the same per-user workload at growing population
// sizes with each shard's sorted runs either held in memory (spill=0) or
// written to run files (spill=1), and drains the k-way merge over them.
// Two counters per entry:
//
//   * syscalls/s    — wall-clock throughput, showing what the disk costs
//                     (encode + write + read back);
//   * peak_rss_mb   — the process peak resident set over the entry, showing
//                     what it buys (flat memory as users grow, versus the
//                     memory runs' linear climb).
//
// Peak RSS comes from /proc/self/status VmHWM.  The high-water mark is
// process-wide, so each entry resets it first via /proc/self/clear_refs
// ("5"); on kernels where the reset is unsupported the mark only ever
// rises, which is why the entries are registered spill-on before spill-off
// at each population and populations ascending — the first entry to reach
// a new high is then still the one that caused it.  Off Linux the counter
// reads 0.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench_main.h"
#include "runner/sharded_runner.h"

namespace {

using namespace wlgen;

constexpr const char* kSpoolDir = ".wlgen-spool/bench-micro-spill";

// Resets the kernel's peak-RSS high-water mark for this process (Linux;
// best-effort — see the header comment for the registration-order fallback).
void reset_peak_rss() {
#ifdef __linux__
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
#endif
}

// Peak resident set in MiB (VmHWM), 0 when unavailable.
double peak_rss_mb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
#else
  return 0.0;
#endif
}

void BM_SpillPopulation(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const bool spill = state.range(1) != 0;
  std::uint64_t ops = 0;
  reset_peak_rss();
  for (auto _ : state) {
    runner::RunnerConfig config;
    config.num_users = users;
    config.shards = 8;
    config.threads = 2;
    config.usim.sessions_per_user = 1;
    config.collect_log = true;  // the log IS the product being scaled
    if (spill) {
      config.spill.enabled = true;
      config.spill.spool_dir = kSpoolDir;
      config.spill.buffer_records = 8192;  // small buffer: several runs per shard
      config.spill.config_tag = "bench micro_spill";
    }
    runner::ShardedRunner run(std::move(config));
    const auto result = run.run();
    ops += result.total_ops;
    benchmark::DoNotOptimize(result.stats.response_us().mean());
    // Both arms end with sorted runs (on disk or in memory) whose merge
    // cost is paid by the reader, so charge it here.
    auto reader = core::open_spilled_log(result.log_runs);
    core::OpRecord record;
    std::uint64_t merged = 0;
    while (reader->next(record)) ++merged;
    benchmark::DoNotOptimize(merged);
  }
  std::error_code ec;
  std::filesystem::remove_all(kSpoolDir, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users));
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
}
// Spill-on before spill-off at each population, populations ascending — the
// fallback attribution order when the VmHWM reset is unsupported.
BENCHMARK(BM_SpillPopulation)
    ->ArgNames({"users", "spill"})
    ->Args({500, 1})
    ->Args({500, 0})
    ->Args({2000, 1})
    ->Args({2000, 0})
    ->Args({8000, 1})
    ->Args({8000, 0})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

WLGEN_BENCHMARK_MAIN();
