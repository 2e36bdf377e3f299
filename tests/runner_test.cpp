// Tests for the parallel simulation runners: the deterministic partitioning
// rule, the (time, user) merge contract, the headline guarantee that shard
// count and thread count never change the sharded runner's merged usage log
// or aggregates — bit for bit — and the contended runner's mirror contract:
// thread count and replication batching never change the merged per-point
// statistics.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "fs/filesystem.h"
#include "fsmodel/nfs_model.h"
#include "runner/checkpoint.h"
#include "runner/contended_runner.h"
#include "runner/merge.h"
#include "runner/sharded_runner.h"
#include "runner/universe.h"
#include "util/table.h"

namespace wlgen::runner {
namespace {

// --- partitioning rule ------------------------------------------------------

TEST(Partition, CoversDisjointAndBalanced) {
  for (std::size_t users : {1u, 7u, 16u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 5u, 16u}) {
      const auto ranges = partition_users(users, shards);
      ASSERT_EQ(ranges.size(), shards);
      std::size_t covered = 0;
      std::size_t max_size = 0, min_size = users + 1;
      for (std::size_t s = 0; s < ranges.size(); ++s) {
        EXPECT_EQ(ranges[s].begin, covered) << "gap or overlap at shard " << s;
        covered = ranges[s].end;
        max_size = std::max(max_size, ranges[s].size());
        min_size = std::min(min_size, ranges[s].size());
      }
      EXPECT_EQ(covered, users);
      EXPECT_LE(max_size - min_size, 1u) << users << " users over " << shards << " shards";
    }
  }
}

TEST(Partition, ShardOfUserInvertsTheRule) {
  for (std::size_t users : {1u, 9u, 64u}) {
    for (std::size_t shards : {1u, 4u, 7u}) {
      const auto ranges = partition_users(users, shards);
      for (std::size_t u = 0; u < users; ++u) {
        const std::size_t s = shard_of_user(u, users, shards);
        EXPECT_TRUE(ranges[s].contains(u)) << "user " << u << " shard " << s;
      }
    }
  }
}

TEST(Partition, MoreShardsThanUsersYieldsEmptyShards) {
  // Note the empty shards are interleaved by the floor rule, not trailing.
  const auto ranges = partition_users(2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  std::size_t nonempty = 0;
  for (const auto& r : ranges) nonempty += r.empty() ? 0 : 1;
  EXPECT_EQ(nonempty, 2u);
  EXPECT_THROW(partition_users(1, 0), std::invalid_argument);
}

// --- merge contract ---------------------------------------------------------

core::OpRecord record_at(double t, std::uint32_t user, std::uint64_t file_id) {
  core::OpRecord r;
  r.issue_time_us = t;
  r.user = user;
  r.file_id = file_id;
  return r;
}

TEST(Merge, OrdersByTimeThenUserWithStablePerUserOrder) {
  std::vector<core::UsageLog> per_user(3);
  // User 0: two records at t=5 (ids 1 then 2 — must stay in that order).
  per_user[0].append(record_at(5.0, 0, 1));
  per_user[0].append(record_at(5.0, 0, 2));
  // User 1: one earlier, one tying user 0's t=5.
  per_user[1].append(record_at(1.0, 1, 3));
  per_user[1].append(record_at(5.0, 1, 4));
  // User 2: ties user 1's t=1 — user index breaks the tie.
  per_user[2].append(record_at(1.0, 2, 5));

  const core::UsageLog merged = merge_user_logs(std::move(per_user));
  ASSERT_EQ(merged.size(), 5u);
  std::vector<std::uint64_t> ids;
  for (const auto& r : merged.records()) ids.push_back(r.file_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 5, 1, 2, 4}));
  core::MemoryLogReader reader(merged);
  EXPECT_TRUE(is_merge_ordered(reader));
}

TEST(Merge, DetectsDisorder) {
  core::UsageLog log;
  log.append(record_at(2.0, 0, 1));
  log.append(record_at(1.0, 0, 2));
  core::MemoryLogReader log_reader(log);
  EXPECT_FALSE(is_merge_ordered(log_reader));
  core::UsageLog tie;
  tie.append(record_at(1.0, 3, 1));
  tie.append(record_at(1.0, 2, 2));
  core::MemoryLogReader tie_reader(tie);
  EXPECT_FALSE(is_merge_ordered(tie_reader));
}

// --- the headline invariance ------------------------------------------------

RunnerConfig base_config(std::size_t users, std::size_t shards, std::size_t threads) {
  RunnerConfig config;
  config.num_users = users;
  config.shards = shards;
  config.threads = threads;
  config.seed = 2024;
  config.usim.sessions_per_user = 3;
  config.population = core::mixed_population(0.5);
  return config;
}

/// A run's merged log, read through the k-way merge over its runs.
core::UsageLog merged_log(const RunnerResult& result) {
  return core::materialize(*core::open_spilled_log(result.log_runs));
}

/// The independent reference for a sharded run's log: every user's
/// universe built on its own by run_universe, as run_user configures it,
/// and the per-user logs merged by merge_user_logs.
core::UsageLog reference_log(RunnerConfig config) {
  config.resolve();
  sim::Simulation sim;
  std::vector<core::UsageLog> per_user;
  for (std::size_t u = 0; u < config.num_users; ++u) {
    core::UsimConfig usim = config.usim;
    usim.num_users = 1;
    usim.first_user = u;
    usim.population_users = config.num_users;
    usim.seed = config.seed;
    per_user.push_back(run_universe(sim, config, std::move(usim)).log);
  }
  return merge_user_logs(std::move(per_user));
}

void expect_stats_identical(const RunnerStats& a, const RunnerStats& b) {
  EXPECT_EQ(a.ops(), b.ops());
  EXPECT_EQ(a.bytes_moved(), b.bytes_moved());
  // Bit-identical floating point: the merge fold is a fixed reduction
  // sequence in user order, so these are exact equalities, not tolerances.
  EXPECT_EQ(a.response_us().mean(), b.response_us().mean());
  EXPECT_EQ(a.response_us().variance(), b.response_us().variance());
  EXPECT_EQ(a.response_us().min(), b.response_us().min());
  EXPECT_EQ(a.response_us().max(), b.response_us().max());
  EXPECT_EQ(a.access_size().mean(), b.access_size().mean());
  EXPECT_EQ(a.access_size().variance(), b.access_size().variance());
  EXPECT_EQ(a.response_per_byte_us(), b.response_per_byte_us());
  EXPECT_EQ(a.response_histogram().counts(), b.response_histogram().counts());
  EXPECT_EQ(a.response_histogram().total(), b.response_histogram().total());
}

TEST(ShardedRunner, ShardCountNeverChangesMergedResults) {
  ShardedRunner one(base_config(6, 1, 1));
  const RunnerResult r1 = one.run();
  ASSERT_GT(r1.total_ops, 0u);
  const core::UsageLog log1 = merged_log(r1);
  ASSERT_EQ(log1.size(), r1.total_ops);
  core::MemoryLogReader reader(log1);
  EXPECT_TRUE(is_merge_ordered(reader));

  for (std::size_t shards : {2u, 3u, 6u}) {
    ShardedRunner many(base_config(6, shards, 2));
    const RunnerResult rk = many.run();
    // Bit-identical merged usage log, FIFO tie-break order included.
    EXPECT_EQ(merged_log(rk).serialize(), log1.serialize()) << shards << " shards";
    expect_stats_identical(rk.stats, r1.stats);
    EXPECT_EQ(rk.total_ops, r1.total_ops);
    EXPECT_EQ(rk.sessions_completed, r1.sessions_completed);
  }
}

TEST(ShardedRunner, ThreadCountNeverChangesMergedResults) {
  ShardedRunner serial(base_config(5, 5, 1));
  const RunnerResult r1 = serial.run();
  ShardedRunner parallel(base_config(5, 5, 4));
  const RunnerResult r4 = parallel.run();
  ASSERT_GT(r1.total_ops, 0u);
  const core::UsageLog log1 = merged_log(r1);
  ASSERT_EQ(log1.size(), r1.total_ops);
  EXPECT_EQ(merged_log(r4).serialize(), log1.serialize());
  EXPECT_EQ(r4.total_ops, r1.total_ops);
  expect_stats_identical(r4.stats, r1.stats);
}

TEST(ShardedRunner, TimestampTiesBreakByUserIndex) {
  RunnerConfig config = base_config(4, 2, 2);
  // Zero-think users: every user's first call issues at exactly the
  // constant inter-session gap on its own clock, forcing cross-user
  // timestamp ties in the merged log.
  config.population.groups.clear();
  config.population.groups.push_back({core::extremely_heavy_user(), 1.0});
  ShardedRunner run(std::move(config));
  const RunnerResult result = run.run();
  EXPECT_TRUE(is_merge_ordered(*core::open_spilled_log(result.log_runs)));
  // Ties must appear in ascending user order (is_merge_ordered verifies);
  // check the tie case is actually exercised.
  bool saw_cross_user_tie = false;
  const core::UsageLog log = merged_log(result);
  const auto& records = log.records();
  for (std::size_t i = 1; i < records.size() && !saw_cross_user_tie; ++i) {
    saw_cross_user_tie = records[i].issue_time_us == records[i - 1].issue_time_us &&
                         records[i].user != records[i - 1].user;
  }
  EXPECT_TRUE(saw_cross_user_tie);
}

TEST(ShardedRunner, MatchesDirectSingleUserSimulation) {
  // One user through the runner == the same universe built by hand: the
  // range path is the plain path, not a parallel-only approximation.
  const std::uint64_t seed = 77;
  RunnerConfig config = base_config(1, 1, 1);
  config.seed = seed;
  ShardedRunner run(config);
  const RunnerResult result = run.run();

  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&simulation] { return simulation.now(); });
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  fsc_config.num_users = 1;
  fsc_config.seed = seed;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig usim_config;
  usim_config.num_users = 1;
  usim_config.sessions_per_user = 3;
  usim_config.seed = seed;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::mixed_population(0.5),
                           usim_config);
  usim.run();

  ASSERT_FALSE(usim.log().empty());
  EXPECT_EQ(merged_log(result).serialize(), usim.log().serialize());
}

TEST(ShardedRunner, LogFreeRunsStillProduceMergedAggregates) {
  RunnerConfig config = base_config(4, 2, 2);
  config.collect_log = false;
  ShardedRunner run(config);
  const RunnerResult result = run.run();
  EXPECT_TRUE(result.log_runs.empty());
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_EQ(result.stats.ops(), result.total_ops);
  EXPECT_GT(result.stats.bytes_moved(), 0u);
  EXPECT_GT(result.stats.response_per_byte_us(), 0.0);
  EXPECT_EQ(result.stats.response_histogram().total(), result.total_ops);

  // And the aggregates equal those of a log-collecting run.
  ShardedRunner logged(base_config(4, 2, 2));
  expect_stats_identical(result.stats, logged.run().stats);
}

TEST(ShardedRunner, StatsAgreeWithAnalyzerOnTheMergedLog) {
  ShardedRunner run(base_config(3, 3, 2));
  const RunnerResult result = run.run();
  const core::UsageAnalyzer analyzer(*core::open_spilled_log(result.log_runs));
  ASSERT_GT(analyzer.op_count(), 0u);
  EXPECT_EQ(result.stats.response_us().count(), analyzer.response_stats().count());
  EXPECT_EQ(result.stats.access_size().count(), analyzer.access_size_stats().count());
  // Different floating-point fold order (per-user vs merged-log scan):
  // agreement is near, not bitwise.
  EXPECT_NEAR(result.stats.response_us().mean(), analyzer.response_stats().mean(), 1e-6);
  EXPECT_NEAR(result.stats.response_per_byte_us(), analyzer.response_per_byte_us(), 1e-9);
}

TEST(ShardedRunner, PopulationTypesFollowGlobalIndex) {
  // With a 50/50 mix over 4 users, largest-remainder apportionment fixes
  // which global user gets which type; sharding must not re-apportion
  // within shards (a 2-shard run would otherwise give each shard its own
  // 1+1 split of a fresh 2-user population).
  RunnerConfig config = base_config(4, 4, 2);
  ShardedRunner sharded(config);
  const RunnerResult sharded_result = sharded.run();
  ShardedRunner whole(base_config(4, 1, 1));
  const RunnerResult whole_result = whole.run();
  const core::UsageLog sharded_log = merged_log(sharded_result);
  ASSERT_FALSE(sharded_log.empty());
  EXPECT_EQ(sharded_log.serialize(), merged_log(whole_result).serialize());
  std::set<std::uint32_t> users_seen;
  for (const auto& r : sharded_log.records()) users_seen.insert(r.user);
  EXPECT_EQ(users_seen.size(), 4u);
}

TEST(ShardedRunner, ValidatesConfigurationAndRunsOnce) {
  RunnerConfig no_users;
  no_users.num_users = 0;
  EXPECT_THROW(ShardedRunner(std::move(no_users)), std::invalid_argument);
  RunnerConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(ShardedRunner(std::move(no_shards)), std::invalid_argument);
  ShardedRunner run(base_config(1, 1, 1));
  run.run();
  EXPECT_THROW(run.run(), std::logic_error);
  EXPECT_THROW(model_factory_by_name("afs"), std::invalid_argument);
}

// --- streaming spill + checkpoint/resume ------------------------------------

// Fresh spool directory per test (and per configuration within a test, when
// runs must not see each other's checkpoints).
std::string fresh_spool(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("wlgen_spool_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

RunnerConfig spill_config(std::size_t users, std::size_t shards, std::size_t threads,
                          const std::string& spool, std::size_t buffer_records = 32) {
  RunnerConfig config = base_config(users, shards, threads);
  config.spill.enabled = true;
  config.spill.spool_dir = spool;
  config.spill.buffer_records = buffer_records;  // small: several runs per shard
  return config;
}

TEST(ShardedRunnerSpill, MatchesReferenceLogInMemoryAndOnDiskAcrossShardsAndThreads) {
  // Memory runs and run files are cut, sorted and merged the same way; only
  // where a run lives differs.  Both give merge_user_logs' exact stream,
  // tie-break order included, for every shard and thread count.
  const core::UsageLog reference = reference_log(base_config(6, 1, 1));
  ASSERT_FALSE(reference.empty());
  const std::string expected = reference.serialize();
  ShardedRunner baseline(base_config(6, 1, 1));
  const RunnerResult base = baseline.run();

  for (std::size_t shards : {1u, 2u, 3u}) {
    for (std::size_t threads : {1u, 4u}) {
      for (bool disk : {false, true}) {
        const std::string where = std::to_string(shards) + " shards, " +
                                  std::to_string(threads) + " threads, " +
                                  (disk ? "on disk" : "in memory");
        const std::string spool =
            fresh_spool("s" + std::to_string(shards) + "t" + std::to_string(threads));
        RunnerConfig config = spill_config(6, shards, threads, spool);
        config.spill.enabled = disk;
        ShardedRunner runner(std::move(config));
        const RunnerResult result = runner.run();

        // buffer_records = 32 cuts several runs per shard either way.
        ASSERT_GT(result.log_runs.size(), shards) << where;
        for (const core::SpillRun& run : result.log_runs) {
          EXPECT_EQ(run.path.empty(), !disk) << where;
          EXPECT_EQ(run.memory != nullptr, !disk) << where;
        }
        EXPECT_EQ(merged_log(result).serialize(), expected) << where;

        expect_stats_identical(result.stats, base.stats);
        EXPECT_EQ(result.total_ops, base.total_ops);
        EXPECT_TRUE(result.response_sketch == base.response_sketch);
        if (!disk) {
          EXPECT_FALSE(std::filesystem::exists(spool)) << where;
        }
        std::filesystem::remove_all(spool);
      }
    }
  }
}

TEST(ShardedRunnerSpill, HandlesMoreShardsThanUsers) {
  // Empty shards produce no runs and no records; the merge must not invent
  // or drop anything.
  const std::string spool = fresh_spool("empty_shards");
  ShardedRunner spilled(spill_config(2, 5, 2, spool));
  const RunnerResult result = spilled.run();
  const core::UsageLog reference = reference_log(base_config(2, 1, 1));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(merged_log(result).serialize(), reference.serialize());
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, StreamSatisfiesMergeContractViaReader) {
  const std::string spool = fresh_spool("contract");
  ShardedRunner spilled(spill_config(5, 3, 2, spool));
  const RunnerResult result = spilled.run();
  ASSERT_GT(result.total_ops, 0u);
  EXPECT_TRUE(is_merge_ordered(*core::open_spilled_log(result.log_runs)));
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, SketchIsInvariantAcrossEverything) {
  // One sketch per shard, integer merge: bit-identical buckets for every
  // (shards, threads, spill) combination — including the in-memory path.
  ShardedRunner reference(base_config(6, 1, 1));
  const RunnerResult base = reference.run();
  ASSERT_GT(base.response_sketch.count(), 0u);
  EXPECT_EQ(base.response_sketch.count(), base.total_ops);

  ShardedRunner memory_many(base_config(6, 3, 4));
  EXPECT_TRUE(memory_many.run().response_sketch == base.response_sketch);

  const std::string spool = fresh_spool("sketch");
  ShardedRunner spilled(spill_config(6, 3, 4, spool));
  EXPECT_TRUE(spilled.run().response_sketch == base.response_sketch);
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, CheckpointResumeIsBitIdentical) {
  const std::string spool = fresh_spool("resume");
  RunnerConfig first_config = spill_config(6, 3, 2, spool);
  first_config.spill.checkpoint = true;
  ShardedRunner first(first_config);
  const RunnerResult original = first.run();
  EXPECT_EQ(original.checkpoints_written, 3u);
  EXPECT_EQ(original.shards_resumed, 0u);
  const core::UsageLog original_records = merged_log(original);
  ASSERT_FALSE(original_records.empty());
  const std::string original_log = original_records.serialize();

  // Full resume: every shard restored from its checkpoint, nothing re-run,
  // and the result — log bytes, stats fold, sketch — is bit-identical.
  RunnerConfig resume_config = spill_config(6, 3, 2, spool);
  resume_config.spill.checkpoint = true;
  resume_config.spill.resume = true;
  ShardedRunner resumed(resume_config);
  const RunnerResult restored = resumed.run();
  EXPECT_EQ(restored.shards_resumed, 3u);
  EXPECT_EQ(merged_log(restored).serialize(), original_log);
  expect_stats_identical(restored.stats, original.stats);
  EXPECT_EQ(restored.total_ops, original.total_ops);
  EXPECT_EQ(restored.sessions_completed, original.sessions_completed);
  EXPECT_TRUE(restored.response_sketch == original.response_sketch);

  // Partial resume: delete one shard's checkpoint (simulating an interrupt
  // between shard completions); that shard re-runs, the rest restore, and
  // the merged result is still bit-identical.
  std::filesystem::remove(checkpoint_path(spool, 1));
  ShardedRunner partial(resume_config);
  const RunnerResult repaired = partial.run();
  EXPECT_EQ(repaired.shards_resumed, 2u);
  EXPECT_EQ(repaired.checkpoints_written, 1u);
  EXPECT_EQ(merged_log(repaired).serialize(), original_log);
  expect_stats_identical(repaired.stats, original.stats);
  EXPECT_TRUE(repaired.response_sketch == original.response_sketch);
  std::filesystem::remove_all(spool);
}

/// The Usage Analyzer's tables of a per-op fold and a session count, as
/// text at the precision the CLI prints them.
std::string analysis_table(const core::OpStats& ops, std::size_t sessions) {
  const auto mean_std = [](const stats::RunningSummary& s) {
    return s.count() > 0 ? s.mean_std_string() : std::string("-");
  };
  std::ostringstream out;
  for (std::size_t op = 0; op < core::OpStats::kOps; ++op) {
    const core::OpTypeStats& s = ops.per_op[op];
    if (s.response_us.count() == 0) continue;
    out << fsmodel::to_string(static_cast<fsmodel::FsOpType>(op)) << " "
        << s.response_us.count() << " " << s.bytes << " " << mean_std(s.access_size) << " "
        << mean_std(s.response_us) << "\n";
  }
  out << "calls " << ops.ops() << " sessions " << sessions << " bytes " << ops.bytes_moved
      << " access " << mean_std(ops.access_size) << " response " << mean_std(ops.response_us)
      << " per byte "
      << util::TextTable::num(ops.response_per_byte_us(), 4) << "\n";
  return out.str();
}

// `wlgen run --shards` prints its analysis from the per-user fold instead of
// reading the merged log: the fold must print what the analyzer prints for
// that log, live and after a resume, with interleaved login windows and with
// open-loop arrivals.
TEST(ShardedRunnerSpill, FoldPrintsTheAnalyzerTablesOfTheMergedLog) {
  RunnerConfig windows = base_config(6, 1, 1);
  windows.usim.windows_per_user = 2;
  RunnerConfig open = base_config(6, 1, 1);
  traffic::ArrivalConfig arrivals;
  arrivals.rate_per_sec = 2.0;
  arrivals.sessions = 18;
  open.traffic.arrivals = arrivals;
  for (const auto& [name, workload] : {std::pair{"windows", windows}, std::pair{"open", open}}) {
    for (const std::size_t shards : {1u, 3u}) {
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(name) + " shards " + std::to_string(shards) + " threads " +
                     std::to_string(threads));
        const std::string spool = fresh_spool(std::string("fold_") + name);
        RunnerConfig config = workload;
        config.shards = shards;
        config.threads = threads;
        config.spill.enabled = true;
        config.spill.spool_dir = spool;
        config.spill.buffer_records = 32;
        config.spill.checkpoint = true;
        const RunnerResult live = ShardedRunner(config).run();
        const core::UsageAnalyzer analyzer(*core::open_spilled_log(live.log_runs));
        ASSERT_GT(analyzer.op_count(), 0u);
        const std::string expected =
            analysis_table(analyzer.op_stats(), analyzer.sessions().size());
        EXPECT_EQ(live.sessions_logged, analyzer.sessions().size());
        EXPECT_EQ(analysis_table(live.stats.op_stats(), live.sessions_logged), expected);

        config.spill.resume = true;
        const RunnerResult resumed = ShardedRunner(config).run();
        EXPECT_EQ(resumed.shards_resumed, shards);
        EXPECT_EQ(resumed.sessions_logged, analyzer.sessions().size());
        EXPECT_EQ(analysis_table(resumed.stats.op_stats(), resumed.sessions_logged), expected);
        std::filesystem::remove_all(spool);
      }
    }
  }
}

TEST(ShardedRunnerSpill, ResumeRejectsAForeignFingerprint) {
  const std::string spool = fresh_spool("fingerprint");
  RunnerConfig first_config = spill_config(4, 2, 1, spool);
  first_config.spill.checkpoint = true;
  ShardedRunner first(first_config);
  first.run();

  // Same spool, different seed: the checkpoints describe a different
  // record stream and silently reusing them would corrupt the result.
  RunnerConfig other = spill_config(4, 2, 1, spool);
  other.spill.checkpoint = true;
  other.spill.resume = true;
  other.seed = 777;
  ShardedRunner resumed(other);
  EXPECT_THROW(resumed.run(), std::runtime_error);
  std::filesystem::remove_all(spool);
}

// Resuming throws on any fingerprint mismatch, so the text a checkpoint
// stores is part of the on-disk format: a spool written by an older build
// must still resume.  Pin it for one fixed spilled, checkpointed run.
TEST(ShardedRunnerSpill, CheckpointFingerprintLineIsPinned) {
  const std::string spool = fresh_spool("fingerprint_text");
  RunnerConfig config = spill_config(4, 2, 1, spool);
  config.spill.checkpoint = true;
  ShardedRunner(config).run();
  std::ifstream in(checkpoint_path(spool, 0));
  std::string line;
  while (std::getline(in, line) && line.rfind("fingerprint ", 0) != 0) {
  }
  EXPECT_EQ(line,
            "fingerprint v1 seed=2024 users=4 shards=2 sessions=3 draw_batch=1 windows=1 tag=");
  std::filesystem::remove_all(spool);
}

// A run file is trusted input only up to its user field: a record whose user
// belongs to another shard (a corrupted or foreign file of the right size)
// must fail the resume cleanly, naming the file and the user, instead of
// indexing another shard's per-user slots.
TEST(ShardedRunnerSpill, ResumeRejectsARecordOfAnotherShardsUser) {
  const std::string spool = fresh_spool("stray_user");
  RunnerConfig config = spill_config(4, 2, 1, spool);
  config.spill.checkpoint = true;
  ShardedRunner(config).run();

  // Rewrite shard 0's first run (users [0, 2)) with one record moved to
  // user 3, which shard 1 owns.  Same record count, so the same size: the
  // checkpoint still accepts the file.
  const std::string victim = (std::filesystem::path(spool) / "shard000000_run000000.wlr").string();
  ASSERT_TRUE(std::filesystem::exists(victim));
  std::vector<core::OpRecord> records;
  {
    core::RunFileReader reader(core::SpillRun{victim, 0, 0, nullptr});
    core::OpRecord r;
    while (reader.next(r)) records.push_back(r);
  }
  ASSERT_FALSE(records.empty());
  records.front().user = 3;
  const std::string crafted_dir = fresh_spool("stray_user_crafted");
  core::SpillSink crafted(crafted_dir, "crafted", records.size());
  for (const core::OpRecord& r : records) crafted.append(r);
  crafted.close();
  ASSERT_EQ(crafted.runs().size(), 1u);
  std::filesystem::copy_file(crafted.runs().front().path, victim,
                             std::filesystem::copy_options::overwrite_existing);

  config.spill.resume = true;
  ShardedRunner resumed(config);
  try {
    resumed.run();
    FAIL() << "resume accepted a record of another shard's user";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(victim), std::string::npos) << what;
    EXPECT_NE(what.find("user 3"), std::string::npos) << what;
  }
  std::filesystem::remove_all(spool);
  std::filesystem::remove_all(crafted_dir);
}

TEST(ShardedRunnerSpill, ValidatesSpillConfiguration) {
  RunnerConfig no_spool = base_config(1, 1, 1);
  no_spool.spill.enabled = true;
  EXPECT_THROW(ShardedRunner(std::move(no_spool)), std::invalid_argument);

  RunnerConfig no_log = spill_config(1, 1, 1, fresh_spool("v1"));
  no_log.collect_log = false;
  EXPECT_THROW(ShardedRunner(std::move(no_log)), std::invalid_argument);

  RunnerConfig ckpt_without_spill = base_config(1, 1, 1);
  ckpt_without_spill.spill.checkpoint = true;
  EXPECT_THROW(ShardedRunner(std::move(ckpt_without_spill)), std::invalid_argument);

  RunnerConfig resume_without_ckpt = spill_config(1, 1, 1, fresh_spool("v2"));
  resume_without_ckpt.spill.resume = true;
  EXPECT_THROW(ShardedRunner(std::move(resume_without_ckpt)), std::invalid_argument);

  RunnerConfig zero_buffer = spill_config(1, 1, 1, fresh_spool("v3"), 0);
  EXPECT_THROW(ShardedRunner(std::move(zero_buffer)), std::invalid_argument);
}

// --- shared-machine run and trace replay -----------------------------------

// run_shared and replay_trace print the analysis from their fold: it must be
// the analyzer's tables of the log they return, session count included.
void expect_fold_matches_analyzer(const RunnerStats& stats, std::uint64_t sessions,
                                  const core::UsageLog& log) {
  const core::UsageAnalyzer analyzer(log);
  ASSERT_GT(analyzer.op_count(), 0u);
  EXPECT_EQ(sessions, analyzer.sessions().size());
  EXPECT_EQ(analysis_table(stats.op_stats(), sessions),
            analysis_table(analyzer.op_stats(), analyzer.sessions().size()));
}

WorkloadConfig two_window_workload() {
  WorkloadConfig workload;
  workload.seed = 31;
  workload.usim.sessions_per_user = 4;
  workload.usim.windows_per_user = 2;
  workload.population = core::mixed_population(0.5);
  return workload;
}

TEST(RunShared, FoldAndSessionCountMatchTheAnalyzerWithTwoWindows) {
  const SharedRun run = run_shared(two_window_workload(), 3);
  EXPECT_EQ(run.log.size(), run.ops);
  // Two windows per user: some user's sessions interleave in the log, so a
  // counter that only compared neighbouring records would overcount.
  bool interleaved = false;
  std::vector<std::uint32_t> last_session(3, 0);
  for (const core::OpRecord& r : run.log.records()) {
    interleaved |= r.session < last_session[r.user];
    last_session[r.user] = r.session;
  }
  EXPECT_TRUE(interleaved);
  expect_fold_matches_analyzer(run.stats, run.sessions_logged, run.log);
}

TEST(ReplayTrace, FoldAndSessionCountMatchTheAnalyzerOpenAndClosedLoop) {
  const SharedRun recorded = run_shared(two_window_workload(), 3);
  for (const bool open_loop : {true, false}) {
    SCOPED_TRACE(open_loop ? "open loop" : "closed loop");
    core::TraceReplayer::Options options;
    options.preserve_timing = open_loop;
    const ReplayRun run =
        replay_trace(model_factory_by_name("local"), recorded.log, options, {}, true);
    EXPECT_EQ(run.model, "local");
    EXPECT_EQ(run.users, 3u);
    EXPECT_EQ(run.log.size(), recorded.log.size());
    EXPECT_EQ(run.sessions_logged, recorded.sessions_logged);
    expect_fold_matches_analyzer(run.stats, run.sessions_logged, run.log);
  }
}

TEST(ReplayTrace, CountsTheSessionOfTheLargestUserId) {
  // User ids in a trace come from a file: the largest one replays and
  // counts as one session like any other.
  core::UsageLog trace;
  core::OpRecord record;
  record.user = 4294967295u;
  record.session = 4294967295u;
  record.op = fsmodel::FsOpType::read;
  record.requested_bytes = record.actual_bytes = 512;
  record.file_id = 9;
  record.file_size = 4096;
  for (const double at : {0.0, 50.0, 100.0}) {
    record.issue_time_us = at;
    trace.append(record);
  }
  for (const bool open_loop : {true, false}) {
    core::TraceReplayer::Options options;
    options.preserve_timing = open_loop;
    const ReplayRun run = replay_trace(model_factory_by_name("local"), trace, options, {}, true);
    EXPECT_EQ(run.log.size(), 3u);
    EXPECT_EQ(run.users, 4294967296u);
    EXPECT_EQ(run.sessions_logged, 1u);
    expect_fold_matches_analyzer(run.stats, run.sessions_logged, run.log);
  }
}

// --- contended runner -------------------------------------------------------

ContendedConfig contended_config(std::vector<std::size_t> points, std::size_t replications,
                                 std::size_t threads) {
  ContendedConfig config;
  config.user_points = std::move(points);
  config.replications = replications;
  config.threads = threads;
  config.seed = 2026;
  config.usim.sessions_per_user = 2;
  config.population = core::mixed_population(0.5);
  return config;
}

void expect_points_identical(const ContendedResult& a, const ContendedResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const ContendedPoint& x = a.points[p];
    const ContendedPoint& y = b.points[p];
    EXPECT_EQ(x.users, y.users);
    EXPECT_EQ(x.total_ops, y.total_ops);
    EXPECT_EQ(x.sessions_completed, y.sessions_completed);
    // Bit-identical floating point: the fold is a fixed (point, replication)
    // reduction sequence, so these are exact equalities, not tolerances.
    EXPECT_EQ(x.replication_levels, y.replication_levels);
    EXPECT_EQ(x.response_per_byte.mean, y.response_per_byte.mean);
    EXPECT_EQ(x.response_per_byte.half_width, y.response_per_byte.half_width);
    EXPECT_EQ(x.stats.ops(), y.stats.ops());
    EXPECT_EQ(x.stats.bytes_moved(), y.stats.bytes_moved());
    EXPECT_EQ(x.stats.response_us().mean(), y.stats.response_us().mean());
    EXPECT_EQ(x.stats.response_us().variance(), y.stats.response_us().variance());
    EXPECT_EQ(x.stats.response_per_byte_us(), y.stats.response_per_byte_us());
    EXPECT_EQ(x.stats.response_histogram().counts(), y.stats.response_histogram().counts());
  }
}

TEST(ContendedRunner, ThreadCountNeverChangesMergedResults) {
  ContendedRunner serial(contended_config({1, 2, 3}, 2, 1));
  const ContendedResult r1 = serial.run();
  ASSERT_GT(r1.total_ops, 0u);
  for (std::size_t threads : {2u, 8u}) {
    ContendedRunner parallel(contended_config({1, 2, 3}, 2, threads));
    const ContendedResult rt = parallel.run();
    expect_points_identical(r1, rt);
    EXPECT_EQ(r1.total_ops, rt.total_ops);
  }
}

TEST(ContendedRunner, ReplicationBatchingNeverChangesEarlierReplications) {
  // replication_seed depends only on (root seed, replication index), so a
  // 4-replication run must reproduce a 2-replication run's levels as its
  // prefix — adding replications refines the CI without rewriting history.
  ContendedRunner two(contended_config({2, 3}, 2, 2));
  ContendedRunner four(contended_config({2, 3}, 4, 2));
  const ContendedResult r2 = two.run();
  const ContendedResult r4 = four.run();
  for (std::size_t p = 0; p < r2.points.size(); ++p) {
    ASSERT_EQ(r4.points[p].replication_levels.size(), 4u);
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(r2.points[p].replication_levels[r], r4.points[p].replication_levels[r]);
    }
  }
}

TEST(ContendedRunner, SweepPointSubsetsReproduceExactly) {
  // Per-point results depend only on (seed, users, replication) — running a
  // point alone or inside a larger sweep is indistinguishable.
  ContendedRunner sweep(contended_config({1, 2, 4}, 2, 2));
  ContendedRunner alone(contended_config({2}, 2, 1));
  const ContendedResult full = sweep.run();
  const ContendedResult single = alone.run();
  ASSERT_EQ(single.points.size(), 1u);
  EXPECT_EQ(full.points[1].replication_levels, single.points[0].replication_levels);
  EXPECT_EQ(full.points[1].stats.response_us().mean(),
            single.points[0].stats.response_us().mean());
  EXPECT_EQ(full.points[1].total_ops, single.points[0].total_ops);
}

TEST(ContendedRunner, MatchesDirectSharedMachineSimulation) {
  // One replication of an N-user point == the same contended universe built
  // by hand on the single-Simulation UserSimulator path: the runner
  // parallelises the paper experiment, it does not approximate it.
  const std::size_t users = 3;
  ContendedConfig config = contended_config({users}, 1, 1);
  const std::uint64_t seed = replication_seed(config.seed, 0);
  ContendedRunner run(config);
  const ContendedResult result = run.run();

  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&simulation] { return simulation.now(); });
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  fsc_config.num_users = users;
  fsc_config.seed = seed;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig usim_config;
  usim_config.num_users = users;
  usim_config.sessions_per_user = 2;
  usim_config.seed = seed;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::mixed_population(0.5),
                           usim_config);
  usim.run();

  const core::UsageAnalyzer analyzer(usim.log());
  const ContendedPoint& point = result.points.at(0);
  EXPECT_EQ(point.total_ops, usim.total_ops());
  EXPECT_EQ(point.sessions_completed, usim.sessions_completed());
  EXPECT_EQ(point.stats.ops(), analyzer.response_stats().count());
  EXPECT_NEAR(point.stats.response_per_byte_us(), analyzer.response_per_byte_us(), 1e-9);
}

TEST(ContendedRunner, ReplicationSeedIsAPureFunctionOfRootAndIndex) {
  EXPECT_EQ(replication_seed(7, 0), replication_seed(7, 0));
  EXPECT_NE(replication_seed(7, 0), replication_seed(7, 1));
  EXPECT_NE(replication_seed(7, 0), replication_seed(8, 0));
}

TEST(ContendedRunner, CrossReplicationCiIsPopulated) {
  ContendedRunner run(contended_config({2}, 3, 2));
  const ContendedResult result = run.run();
  const ContendedPoint& point = result.points.at(0);
  ASSERT_EQ(point.response_per_byte.n, 3u);
  EXPECT_GT(point.response_per_byte.mean, 0.0);
  EXPECT_GT(point.response_per_byte.half_width, 0.0);
  // The pooled level and the replication-mean level agree loosely (they are
  // different estimators of the same quantity).
  EXPECT_NEAR(point.stats.response_per_byte_us(), point.response_per_byte.mean,
              point.response_per_byte.mean);
}

TEST(ContendedRunner, ValidatesConfigurationAndRunsOnce) {
  ContendedConfig no_points;
  EXPECT_THROW(ContendedRunner{no_points}, std::invalid_argument);
  ContendedConfig zero_user = contended_config({1, 0}, 1, 1);
  EXPECT_THROW(ContendedRunner{zero_user}, std::invalid_argument);
  ContendedConfig no_reps = contended_config({1}, 0, 1);
  EXPECT_THROW(ContendedRunner{no_reps}, std::invalid_argument);
  ContendedRunner run(contended_config({1}, 1, 1));
  run.run();
  EXPECT_THROW(run.run(), std::logic_error);
}

}  // namespace
}  // namespace wlgen::runner
