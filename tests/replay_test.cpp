// Tests for the trace replayer (the related-work "trace data" workload
// source) — open/closed loop semantics, rescaling, and cross-model replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/replay.h"
#include "core/usim.h"
#include "fsmodel/local_model.h"
#include "fsmodel/nfs_model.h"
#include "runner/model_factory.h"
#include "runner/universe.h"
#include "sim/stages.h"
#include "util/svg.h"

namespace wlgen::core {
namespace {

/// Records a short trace by running the generator once.
UsageLog record_trace(std::size_t users = 2, std::size_t sessions = 3) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel nfs(simulation);
  FscConfig fsc_config;
  fsc_config.num_users = users;
  FileSystemCreator fsc(fsys, di86_file_profiles(), fsc_config);
  const CreatedFileSystem manifest = fsc.create();
  UsimConfig config;
  config.num_users = users;
  config.sessions_per_user = sessions;
  UserSimulator usim(simulation, fsys, nfs, manifest, default_population(), config);
  usim.run();
  return usim.log();
}

TEST(Replay, OpenLoopReplaysEveryOp) {
  const UsageLog trace = record_trace();
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  TraceReplayer replayer(simulation, nfs, trace);
  const UsageLog replayed = replayer.run();
  EXPECT_EQ(replayed.size(), trace.size());
  EXPECT_EQ(replayer.ops_replayed(), trace.size());
}

TEST(Replay, OpenLoopPreservesIssueTimes) {
  const UsageLog trace = record_trace();
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  TraceReplayer replayer(simulation, nfs, trace);
  const UsageLog replayed = replayer.run();

  const double base = trace.records().front().issue_time_us;
  // Issue times shift to a zero base but keep their relative spacing — the
  // open-loop property that makes trace replay blind to the new system.
  std::map<std::uint64_t, double> recorded;  // keyed per (user, op index approximation)
  ASSERT_EQ(replayed.size(), trace.size());
  std::vector<double> original_offsets, replayed_times;
  for (const auto& r : trace.records()) original_offsets.push_back(r.issue_time_us - base);
  for (const auto& r : replayed.records()) replayed_times.push_back(r.issue_time_us);
  std::sort(original_offsets.begin(), original_offsets.end());
  std::sort(replayed_times.begin(), replayed_times.end());
  for (std::size_t i = 0; i < original_offsets.size(); ++i) {
    EXPECT_NEAR(replayed_times[i], original_offsets[i], 1e-6);
  }
}

TEST(Replay, TimeScaleStretchesTheClock) {
  const UsageLog trace = record_trace(1, 2);
  const auto makespan = [&](double scale) {
    sim::Simulation simulation;
    fsmodel::NfsModel nfs(simulation);
    TraceReplayer replayer(simulation, nfs, trace);
    TraceReplayer::Options options;
    options.time_scale = scale;
    replayer.run(options);
    return simulation.now();
  };
  EXPECT_GT(makespan(2.0), makespan(1.0) * 1.5);
}

TEST(Replay, ClosedLoopReplaysEveryOpInUserOrder) {
  const UsageLog trace = record_trace();
  sim::Simulation simulation;
  fsmodel::LocalDiskModel local(simulation);
  TraceReplayer replayer(simulation, local, trace);
  TraceReplayer::Options options;
  options.preserve_timing = false;
  const UsageLog replayed = replayer.run(options);
  EXPECT_EQ(replayed.size(), trace.size());

  // Per user, ops complete in their recorded order (the chain property).
  std::map<std::uint32_t, double> last_issue;
  std::map<std::uint32_t, std::size_t> count;
  for (const auto& r : replayed.records()) {
    EXPECT_GE(r.issue_time_us, last_issue[r.user]);
    last_issue[r.user] = r.issue_time_us;
    ++count[r.user];
  }
  std::map<std::uint32_t, std::size_t> original_count;
  for (const auto& r : trace.records()) ++original_count[r.user];
  EXPECT_EQ(count, original_count);
}

TEST(Replay, ResponsesAreRemeasuredOnTheNewModel) {
  const UsageLog trace = record_trace(1, 3);
  sim::Simulation simulation;
  fsmodel::LocalDiskModel local(simulation);
  TraceReplayer replayer(simulation, local, trace);
  TraceReplayer::Options options;
  options.preserve_timing = false;
  const UsageLog replayed = replayer.run(options);

  const UsageAnalyzer original(trace);
  const UsageAnalyzer rerun(replayed);
  // Same ops, different system: byte counts identical, responses not.
  EXPECT_DOUBLE_EQ(rerun.access_size_stats().mean(), original.access_size_stats().mean());
  EXPECT_NE(rerun.response_stats().mean(), original.response_stats().mean());
}

TEST(Replay, RunTwiceRejected) {
  const UsageLog trace = record_trace(1, 1);
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  TraceReplayer replayer(simulation, nfs, trace);
  replayer.run();
  EXPECT_THROW(replayer.run(), std::logic_error);
}

TEST(Replay, RejectsBadScale) {
  const UsageLog trace = record_trace(1, 1);
  const auto replay = [&](double scale, bool open_loop) {
    sim::Simulation simulation;
    fsmodel::NfsModel nfs(simulation);
    TraceReplayer replayer(simulation, nfs, trace);
    TraceReplayer::Options options;
    options.time_scale = scale;
    options.preserve_timing = open_loop;
    return replayer.run(options);
  };
  for (const bool open_loop : {true, false}) {
    // NaN fails `scale <= 0` as well as `scale > 0`: it must still be
    // refused.  1e308 overflows the stretched span to inf; 1e300 keeps it
    // finite but past 2^53 us, where responses round away.
    for (const double scale : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), 1e308, 1e300}) {
      EXPECT_THROW(replay(scale, open_loop), std::invalid_argument)
          << scale << (open_loop ? " open" : " closed");
    }
    try {
      replay(1e308, open_loop);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("time_scale 1e+308"), std::string::npos) << e.what();
    }
    // A tiny scale compresses the clock; it loses nothing and still replays.
    EXPECT_EQ(replay(1e-320, open_loop).size(), trace.size());
  }
}

TEST(Replay, EmptyTraceIsFine) {
  UsageLog empty;
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  TraceReplayer replayer(simulation, nfs, empty);
  EXPECT_EQ(replayer.run().size(), 0u);
}


/// A synthetic trace of `n` reads and writes from eight users on 200 files.
/// Issue times step by multiples of `quantum_us`, so a coarse quantum makes
/// many ties.
UsageLog synthetic_trace(std::size_t n, double quantum_us, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> step(0, 4);
  std::uniform_int_distribution<std::uint32_t> user(0, 7);
  std::uniform_int_distribution<std::uint64_t> file(0, 199);
  std::uniform_int_distribution<std::uint64_t> bytes(0, 20000);
  UsageLog trace;
  double t = 1000.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += quantum_us * step(gen);
    OpRecord r;
    r.issue_time_us = t;
    r.response_us = 100.0;
    r.user = user(gen);
    r.op = (i % 3 == 0) ? fsmodel::FsOpType::write : fsmodel::FsOpType::read;
    r.requested_bytes = r.actual_bytes = bytes(gen);
    r.file_id = file(gen);
    r.file_size = 65536;
    trace.append(r);
  }
  return trace;
}

struct QueuedReplay {
  std::string log;
  std::uint64_t events = 0;
  std::size_t high_water = 0;
};

/// Open-loop replay the way it was done before Simulation::fire_at: every
/// issue queued up front as an event, so the heap holds the whole trace.
QueuedReplay replay_queueing_every_issue(const UsageLog& trace) {
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  UsageLog out;
  const double base = trace.records().front().issue_time_us;
  for (const OpRecord& r : trace.records()) {
    simulation.schedule_at(std::max(0.0, r.issue_time_us - base), [&simulation, &nfs, &out, &r] {
      fsmodel::FsOp op;
      op.type = r.op;
      op.file_id = r.file_id;
      op.size = r.actual_bytes;
      op.file_size = r.file_size;
      const double issued = simulation.now();
      sim::execute_chain(simulation, nfs.plan(op), [&out, &r, issued](double elapsed) {
        OpRecord o = r;
        o.issue_time_us = issued;
        o.response_us = elapsed;
        out.append(o);
      });
    });
  }
  simulation.run();
  return {out.serialize(), simulation.events_processed(), simulation.arena_high_water()};
}

QueuedReplay replay_open_loop(const UsageLog& trace) {
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  TraceReplayer replayer(simulation, nfs, trace);
  const UsageLog replayed = replayer.run();
  return {replayed.serialize(), simulation.events_processed(), simulation.arena_high_water()};
}

// Open loop issues each record as it comes due instead of queueing the
// whole trace: the heap holds only in-flight work, while the replayed log
// and the processed-event count stay those of the queue-everything design.
TEST(Replay, OpenLoopHoldsOnlyInFlightEvents) {
  const std::size_t n = 10000;
  const UsageLog trace = synthetic_trace(n, 2000.0, 11);
  const QueuedReplay queued = replay_queueing_every_issue(trace);
  const QueuedReplay replayed = replay_open_loop(trace);
  EXPECT_GE(queued.high_water, n);
  EXPECT_LT(replayed.high_water, n / 100);
  EXPECT_EQ(replayed.events, queued.events);
  EXPECT_EQ(replayed.log, queued.log);
}

// A trace whose issue times go backwards (a raw USIM log is in completion
// order) replays exactly like its stable-sorted copy, and like queueing
// every issue (the FIFO tie-break among equal times is input order).
TEST(Replay, ShuffledTraceReplaysLikeItsStableSortedCopy) {
  UsageLog shuffled = synthetic_trace(3000, 500.0, 12);  // many timestamp ties
  auto& records = shuffled.records_mutable();
  // Keep the earliest record first: the replay clock is based on record 0.
  std::shuffle(records.begin() + 1, records.end(), std::mt19937(13));
  UsageLog sorted = shuffled;
  std::stable_sort(sorted.records_mutable().begin(), sorted.records_mutable().end(),
                   [](const OpRecord& a, const OpRecord& b) {
                     return a.issue_time_us < b.issue_time_us;
                   });
  ASSERT_NE(shuffled.serialize(), sorted.serialize());

  const QueuedReplay from_shuffled = replay_open_loop(shuffled);
  EXPECT_EQ(from_shuffled.log, replay_open_loop(sorted).log);
  const QueuedReplay queued = replay_queueing_every_issue(shuffled);
  EXPECT_EQ(from_shuffled.log, queued.log);
  EXPECT_EQ(from_shuffled.events, queued.events);
}

/// Every figure of a replay's fold, as exact text.
std::string fold_text(const runner::ReplayRun& run) {
  const auto exact = [](double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    return std::string(buffer);
  };
  std::string text = "ops=" + std::to_string(run.stats.ops()) +
                     " bytes=" + std::to_string(run.stats.bytes_moved()) +
                     " users=" + std::to_string(run.users) +
                     " sessions=" + std::to_string(run.sessions_logged) +
                     " per_byte=" + exact(run.stats.response_per_byte_us());
  for (const auto* summary : {&run.stats.response_us(), &run.stats.access_size()}) {
    text += " [" + std::to_string(summary->count()) + " " + exact(summary->mean()) + " " +
            exact(summary->stddev()) + " " + exact(summary->min()) + " " +
            exact(summary->max()) + "]";
  }
  for (std::size_t op = 0; op < OpStats::kOps; ++op) {
    const OpTypeStats& s = run.stats.op_stats().per_op[op];
    text += " op" + std::to_string(op) + "=" + std::to_string(s.response_us.count()) + "/" +
            exact(s.response_sum_us);
  }
  return text;
}

// The streamed replay `wlgen replay` runs folds and logs exactly what the
// replay of the loaded trace does: an ordered trace streams, one that goes
// backwards is read again and replayed loaded.
TEST(Replay, StreamedOpenLoopMatchesTheLoadedReplay) {
  UsageLog shuffled = synthetic_trace(3000, 500.0, 12);
  std::shuffle(shuffled.records_mutable().begin() + 1, shuffled.records_mutable().end(),
               std::mt19937(13));
  const struct {
    const char* name;
    UsageLog trace;
    bool ordered;
  } traces[] = {
      {"ordered", synthetic_trace(3000, 100.0, 21), true},
      {"ties", synthetic_trace(3000, 2000.0, 11), true},
      {"shuffled", shuffled, false},
      {"usim log", record_trace(3, 3), false},
  };
  const runner::ModelFactory factory = runner::model_factory_by_name("local");
  for (const auto& t : traces) {
    for (const double scale : {1.0, 0.5, 1e-320}) {
      SCOPED_TRACE(std::string(t.name) + " scale " + std::to_string(scale));
      TraceReplayer::Options options;
      options.time_scale = scale;
      const runner::ReplayRun loaded = runner::replay_trace(factory, t.trace, options, {}, true);
      ASSERT_EQ(loaded.log.size(), t.trace.size());

      std::size_t opened = 0;
      const runner::TraceSource source = [&]() -> std::unique_ptr<LogReader> {
        ++opened;
        return std::make_unique<MemoryLogReader>(t.trace);
      };
      const runner::ReplayRun streamed = runner::replay_trace(factory, source, options, {}, true);
      EXPECT_EQ(fold_text(streamed), fold_text(loaded));
      EXPECT_EQ(streamed.log.serialize(), loaded.log.serialize());
      // 1e-320 rounds a short trace's offsets to a few denormals: whether
      // they still step back depends on the trace.
      if (scale != 1e-320) {
        EXPECT_EQ(opened, t.ordered ? 1u : 2u);
      }

      // Without keep_log nothing of the log is kept; the fold is the same.
      const runner::ReplayRun folded = runner::replay_trace(factory, source, options);
      EXPECT_TRUE(folded.log.empty());
      EXPECT_EQ(fold_text(folded), fold_text(loaded));
    }
  }
}

TEST(Replay, StreamedTraceFileMatchesTheLoadedReplay) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "wlgen_replay_stream.log").string();
  const UsageLog trace = synthetic_trace(20000, 300.0, 5);
  util::write_text_file(path, trace.serialize());
  const runner::ModelFactory factory = runner::model_factory_by_name("nfs");
  TraceReplayer::Options options;
  const runner::ReplayRun loaded = runner::replay_trace(factory, trace, options, {}, true);
  const runner::ReplayRun streamed = runner::replay_trace(
      factory, [&] { return std::make_unique<TextLogReader>(path, 4, 4096); }, options, {}, true);
  EXPECT_EQ(fold_text(streamed), fold_text(loaded));
  EXPECT_EQ(streamed.log.serialize(), loaded.log.serialize());
  std::filesystem::remove(path);
}

// The replayer over a reader: a trace that goes backwards stops the stream
// (the collecting run refuses it); closed loop loads the stream first.
TEST(Replay, StreamReportsTheFirstStepBackAndClosedLoopLoadsIt) {
  const UsageLog trace = record_trace(2, 2);
  {
    sim::Simulation simulation;
    fsmodel::NfsModel nfs(simulation);
    MemoryLogReader reader(trace);
    TraceReplayer replayer(simulation, nfs, reader);
    std::size_t handed = 0;
    EXPECT_FALSE(replayer.run({}, [&](const OpRecord&) { ++handed; }));
    EXPECT_LT(handed, trace.size());
  }
  {
    sim::Simulation simulation;
    fsmodel::NfsModel nfs(simulation);
    MemoryLogReader reader(trace);
    EXPECT_THROW(TraceReplayer(simulation, nfs, reader).run(), std::logic_error);
  }
  TraceReplayer::Options closed;
  closed.preserve_timing = false;
  sim::Simulation loaded_sim;
  fsmodel::LocalDiskModel loaded_model(loaded_sim);
  const UsageLog expected = TraceReplayer(loaded_sim, loaded_model, trace).run(closed);
  sim::Simulation simulation;
  fsmodel::LocalDiskModel local(simulation);
  MemoryLogReader reader(trace);
  EXPECT_EQ(TraceReplayer(simulation, local, reader).run(closed).serialize(),
            expected.serialize());
}

// A stream is checked against 2^53 µs as it is read: the error still names
// the scale.
TEST(Replay, StreamRejectsAnOverflowingScale) {
  const UsageLog trace = synthetic_trace(100, 1000.0, 3);
  sim::Simulation simulation;
  fsmodel::NfsModel nfs(simulation);
  MemoryLogReader reader(trace);
  TraceReplayer replayer(simulation, nfs, reader);
  TraceReplayer::Options options;
  options.time_scale = 1e308;
  try {
    replayer.run(options, [](const OpRecord&) {});
    ADD_FAILURE() << "an overflowing scale replayed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("time_scale 1e+308"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace wlgen::core
