// Microbenchmarks (google-benchmark): throughput of the hot paths every
// experiment leans on — distribution sampling, CDF-table lookup, the DES
// event loop, resource queueing, the simulated file system and the FSC
// layout, the LRU caches and the usage-log text codec.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_main.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/usage_log.h"
#include "dist/basic.h"
#include "dist/cdf_table.h"
#include "dist/multistage_gamma.h"
#include "dist/phase_exponential.h"
#include "fs/filesystem.h"
#include "fsmodel/lru_cache.h"
#include "runner/universe.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stages.h"
#include "util/rng.h"

namespace {

using namespace wlgen;

// Batched uniform path: RngStream::uniform01 serves from a 128-draw block
// filled in one tight mt19937_64 loop (see DESIGN.md "Batched RNG").
void BM_RngUniform01(benchmark::State& state) {
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform01);

// Reference path: one std::uniform_real_distribution dispatch per draw on
// the same engine — what uniform01 cost before batching; kept on the
// scoreboard to document the amortisation.
void BM_RngUniform01Unbatched(benchmark::State& state) {
  util::RngStream rng(1, "bm");
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(dist(rng.engine()));
}
BENCHMARK(BM_RngUniform01Unbatched);

void BM_SampleExponential(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SampleExponential);

void BM_SamplePhaseTypeExponential(benchmark::State& state) {
  const auto d = dist::PhaseTypeExponential::paper_example_c();
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SamplePhaseTypeExponential);

void BM_SampleMultiStageGamma(benchmark::State& state) {
  const auto d = dist::MultiStageGamma::paper_example_c();
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SampleMultiStageGamma);

void BM_CdfTableSample(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  const dist::CdfTable table = dist::build_cdf_table(d, static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_CdfTableSample)->Arg(16)->Arg(256)->Arg(4096);

// Reference path: O(log n) binary search over the F column.  Kept on the
// scoreboard to document the alias method's flat profile against it.
void BM_CdfTableSampleBinarySearch(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  const dist::CdfTable table = dist::build_cdf_table(d, static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(table.sample_binary(rng));
}
BENCHMARK(BM_CdfTableSampleBinarySearch)->Arg(16)->Arg(256)->Arg(4096);

void BM_SimulationEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventLoop)->Arg(1000)->Arg(10000);

// Steady-state event churn: a fixed-size pending set where every dispatched
// event reschedules a successor at a random future time — the USIM's actual
// heap access pattern (BM_SimulationEventLoop above is the fill-then-drain
// shape).  Items = events dispatched.
struct ChurnState {
  sim::Simulation sim;
  util::RngStream rng{1, "bm"};
  std::uint64_t remaining = 0;
};

void churn_hop(ChurnState* cs) {
  if (cs->remaining == 0) return;
  --cs->remaining;
  cs->sim.schedule(cs->rng.uniform01() * 100.0, [cs] { churn_hop(cs); });
}

void BM_SimulationEventChurn(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kHops = 32;
  for (auto _ : state) {
    ChurnState cs;
    cs.remaining = kHops * pending;
    for (std::size_t i = 0; i < pending; ++i) {
      cs.sim.schedule(cs.rng.uniform01() * 100.0, [p = &cs] { churn_hop(p); });
    }
    cs.sim.run();
    benchmark::DoNotOptimize(cs.sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>((kHops + 1) * pending));
}
BENCHMARK(BM_SimulationEventChurn)->Arg(1024)->Arg(65536);

void BM_ResourceQueueing(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource disk(sim, "disk", 1);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim::execute_chain(sim, {sim::Stage::make_use(disk, 1.0)}, [](double) {});
    }
    sim.run();
    benchmark::DoNotOptimize(disk.completed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ResourceQueueing)->Arg(1000);

// One warm Simulation reset every iteration, as run_universe resets its
// worker's: the arena and chain pools are the row's own after the first
// iteration, so the row reads the same alone or after any other benchmark.
void BM_StageChainExecution(benchmark::State& state) {
  sim::Simulation sim;
  for (auto _ : state) {
    sim.reset();
    sim::Resource disk(sim, "disk", 1);
    for (int i = 0; i < 500; ++i) {
      sim::execute_chain(sim,
                         {sim::Stage::make_delay(1.0), sim::Stage::make_use(disk, 2.0),
                          sim::Stage::make_delay(1.0)},
                         [](double) {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_StageChainExecution);

void BM_FsCreateWriteUnlink(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/f" + std::to_string(i++ % 1000);
    const auto fd = fsys.creat(path);
    fsys.write(fd.value(), 4096);
    fsys.close(fd.value());
    fsys.unlink(path);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FsCreateWriteUnlink);

void BM_FsSequentialRead(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/big");
  fsys.write(fd.value(), 1 << 20);
  fsys.close(fd.value());
  const auto rd = fsys.open("/big", fs::kRead);
  for (auto _ : state) {
    if (fsys.read(rd.value(), 1024).value() == 0) fsys.lseek(rd.value(), 0, fs::Seek::set);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FsSequentialRead);

void BM_FsPathResolutionDeep(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  std::string path;
  for (int d = 0; d < 8; ++d) {
    path += "/d" + std::to_string(d);
    fsys.mkdir(path);
  }
  const std::string file = path + "/leaf";
  fsys.close(fsys.creat(file).value());
  for (auto _ : state) benchmark::DoNotOptimize(fsys.stat(file));
}
BENCHMARK(BM_FsPathResolutionDeep);

// One universe's FSC layout as run_universe lays it out: the run's shared
// /system tree (256 files) copied, plus one user's tree (64 files and five
// directories).  Items = manifest entries.
void BM_FscLayout(benchmark::State& state) {
  const std::vector<core::FileCategoryProfile> profiles = core::di86_file_profiles();
  const core::FscConfig config;
  const core::SystemTree tree(config, profiles);
  std::int64_t files = 0;
  for (auto _ : state) {
    fs::SimulatedFileSystem fsys;
    core::FileSystemCreator fsc(fsys, profiles, config);
    const std::size_t count = fsc.create(tree).file_count();
    benchmark::DoNotOptimize(count);
    files += static_cast<std::int64_t>(count);
  }
  state.SetItemsProcessed(files);
}
BENCHMARK(BM_FscLayout);

void BM_LruCacheAccess(benchmark::State& state) {
  fsmodel::LruCache cache(static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (std::int64_t i = 0; i < state.range(0); ++i) cache.insert(static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 2 * state.range(0)));
    if (!cache.access(key)) cache.insert(key);
  }
}
BENCHMARK(BM_LruCacheAccess)->Arg(384)->Arg(4096);

// The usage-log text codec, one record per iteration (ns per record), over
// a real run's records: four users of the default workload, five sessions
// each, on one machine.
const std::vector<core::OpRecord>& codec_records() {
  static const std::vector<core::OpRecord> records = [] {
    runner::WorkloadConfig workload;
    workload.usim.sessions_per_user = 5;
    return runner::run_shared(workload, 4).log.records();
  }();
  return records;
}

void BM_FormatRecordText(benchmark::State& state) {
  const std::vector<core::OpRecord>& records = codec_records();
  char line[core::kMaxRecordTextBytes];
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::format_record_text(records[i], line));
    benchmark::ClobberMemory();
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FormatRecordText);

void BM_ParseRecordLine(benchmark::State& state) {
  std::vector<std::string> lines;
  char text[core::kMaxRecordTextBytes];
  for (const core::OpRecord& r : codec_records()) {
    lines.emplace_back(text, core::format_record_text(r, text) - 1);  // without the '\n'
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::parse_record_line(lines[i]));
    if (++i == lines.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseRecordLine);

// The run-record codec over the same records, one record per iteration (ns
// per record): encode into a buffer, and decode a run of them back to back.
void BM_EncodeRunRecord(benchmark::State& state) {
  const std::vector<core::OpRecord>& records = codec_records();
  unsigned char bytes[core::kMaxRunRecordBytes];
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_record(records[i], bytes));
    benchmark::ClobberMemory();
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeRunRecord);

void BM_DecodeRunRecord(benchmark::State& state) {
  std::vector<unsigned char> bytes(codec_records().size() * core::kMaxRunRecordBytes);
  std::size_t size = 0;
  for (const core::OpRecord& r : codec_records()) size += core::encode_record(r, bytes.data() + size);
  const unsigned char* p = bytes.data();
  const unsigned char* const end = bytes.data() + size;
  core::OpRecord record;
  for (auto _ : state) {
    if (core::decode_record(p, end, record) != core::DecodeStatus::ok) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(record);
    if (p == end) p = bytes.data();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeRunRecord);

}  // namespace

WLGEN_BENCHMARK_MAIN();
