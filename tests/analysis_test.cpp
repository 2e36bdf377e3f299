// Tests for the Usage Analyzer and the baseline (benchmark-style) workloads.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <string>

#include "core/analysis.h"
#include "core/baseline.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fsmodel/nfs_model.h"
#include "fsmodel/wholefile_model.h"
#include "util/rng.h"

namespace wlgen::core {
namespace {

OpRecord record(std::uint32_t user, std::uint32_t session, fsmodel::FsOpType op,
                std::uint64_t file, std::uint64_t bytes, std::uint64_t file_size,
                double issue = 0.0, double response = 10.0) {
  OpRecord r;
  r.user = user;
  r.session = session;
  r.op = op;
  r.file_id = file;
  r.requested_bytes = bytes;
  r.actual_bytes = bytes;
  r.file_size = file_size;
  r.issue_time_us = issue;
  r.response_us = response;
  r.category = FileCategory{FileType::regular, FileOwner::user, UseMode::read_only};
  return r;
}

TEST(SessionCounter, NumbersDistinctUserSessionPairsInFirstSeenOrder) {
  SessionCounter counter;
  using fsmodel::FsOpType;
  // Interleaved sessions, a repeat after other keys, and the extreme ids:
  // (0, max) and (max, 0) are different pairs, and neither is (0, 0).
  EXPECT_EQ(counter.add(record(0, 0, FsOpType::open, 1, 0, 10)), 0u);
  EXPECT_EQ(counter.add(record(0, 1, FsOpType::open, 1, 0, 10)), 1u);
  EXPECT_EQ(counter.add(record(0, 0, FsOpType::read, 1, 5, 10)), 0u);
  EXPECT_EQ(counter.add(record(0, 0xFFFFFFFFu, FsOpType::open, 1, 0, 10)), 2u);
  EXPECT_EQ(counter.add(record(0xFFFFFFFFu, 0, FsOpType::open, 1, 0, 10)), 3u);
  EXPECT_EQ(counter.add(record(0xFFFFFFFFu, 0xFFFFFFFFu, FsOpType::open, 1, 0, 10)), 4u);
  EXPECT_EQ(counter.add(record(0, 1, FsOpType::close, 1, 0, 10)), 1u);
  EXPECT_EQ(counter.count(), 5u);
  // Past the table's first growth, every pair still counts once.
  for (std::uint32_t user = 0; user < 100; ++user) {
    for (std::uint32_t session = 2; session < 6; ++session) {
      counter.add(record(user, session, FsOpType::open, 1, 0, 10));
    }
  }
  EXPECT_EQ(counter.count(), 405u);
}

TEST(Analyzer, SessionAggregatesMatchHandComputation) {
  UsageLog log;
  // Session (0,0): file 1 (size 1000) read 600+600 bytes; file 2 (size 500) read 250.
  log.append(record(0, 0, fsmodel::FsOpType::open, 1, 0, 1000, 0.0, 5.0));
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 600, 1000, 10.0, 20.0));
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 600, 1000, 40.0, 20.0));
  log.append(record(0, 0, fsmodel::FsOpType::open, 2, 0, 500, 70.0, 5.0));
  log.append(record(0, 0, fsmodel::FsOpType::read, 2, 250, 500, 80.0, 20.0));
  log.append(record(0, 0, fsmodel::FsOpType::close, 1, 0, 1000, 110.0, 5.0));

  const UsageAnalyzer analyzer(log);
  ASSERT_EQ(analyzer.sessions().size(), 1u);
  const SessionSummary& s = analyzer.sessions()[0];
  EXPECT_EQ(s.ops, 6u);
  EXPECT_EQ(s.bytes_accessed, 1450u);
  EXPECT_EQ(s.files_referenced, 2u);
  EXPECT_DOUBLE_EQ(s.total_file_bytes, 1500.0);
  EXPECT_DOUBLE_EQ(s.mean_file_size, 750.0);
  EXPECT_DOUBLE_EQ(s.access_per_byte, 1450.0 / 1500.0);
  EXPECT_DOUBLE_EQ(s.start_us, 0.0);
  EXPECT_DOUBLE_EQ(s.end_us, 115.0);
}

TEST(Analyzer, SeparatesSessions) {
  UsageLog log;
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 100, 1000));
  log.append(record(0, 1, fsmodel::FsOpType::read, 1, 100, 1000));
  log.append(record(1, 0, fsmodel::FsOpType::read, 2, 100, 1000));
  const UsageAnalyzer analyzer(log);
  EXPECT_EQ(analyzer.sessions().size(), 3u);
}

TEST(Analyzer, ResponsePerByteIsAllResponseOverDataBytes) {
  UsageLog log;
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 100, 1000, 0.0, 300.0));
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 300, 1000, 0.0, 100.0));
  // The open's response counts toward the numerator (it is part of the cost
  // of accessing those bytes) but contributes no bytes.
  log.append(record(0, 0, fsmodel::FsOpType::open, 1, 0, 1000, 0.0, 1000.0));
  const UsageAnalyzer analyzer(log);
  EXPECT_DOUBLE_EQ(analyzer.response_per_byte_us(), (300.0 + 100.0 + 1000.0) / 400.0);
}

TEST(Analyzer, PerOpStatsSplitsByType) {
  UsageLog log;
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 100, 1000, 0.0, 10.0));
  log.append(record(0, 0, fsmodel::FsOpType::write, 1, 200, 1000, 0.0, 20.0));
  log.append(record(0, 0, fsmodel::FsOpType::open, 1, 0, 1000, 0.0, 30.0));
  const auto stats = UsageAnalyzer(log).per_op_stats();
  EXPECT_DOUBLE_EQ(stats.at(fsmodel::FsOpType::read).access_size.mean(), 100.0);
  EXPECT_DOUBLE_EQ(stats.at(fsmodel::FsOpType::write).access_size.mean(), 200.0);
  EXPECT_DOUBLE_EQ(stats.at(fsmodel::FsOpType::open).response_us.mean(), 30.0);
  EXPECT_EQ(stats.at(fsmodel::FsOpType::open).access_size.count(), 0u);
}

TEST(Analyzer, HistogramsCoverSessions) {
  UsageLog log;
  for (std::uint32_t s = 0; s < 20; ++s) {
    log.append(record(0, s, fsmodel::FsOpType::read, 1, 100 * (s + 1), 1000));
  }
  const UsageAnalyzer analyzer(log);
  const auto h = analyzer.session_access_per_byte_histogram(10);
  std::size_t total = 0;
  for (double c : h.counts()) total += static_cast<std::size_t>(c);
  EXPECT_EQ(total, 20u);
  EXPECT_NO_THROW(analyzer.session_file_size_histogram(10));
  EXPECT_NO_THROW(analyzer.session_files_histogram(10));
}

TEST(Analyzer, PerCategoryUsageGroupsCorrectly) {
  UsageLog log;
  OpRecord notes = record(0, 0, fsmodel::FsOpType::read, 5, 400, 800);
  notes.category = FileCategory{FileType::regular, FileOwner::notes, UseMode::read_only};
  log.append(notes);
  log.append(record(0, 0, fsmodel::FsOpType::read, 1, 100, 1000));
  log.append(record(0, 1, fsmodel::FsOpType::read, 1, 100, 1000));

  const auto usage = UsageAnalyzer(log).per_category_usage();
  ASSERT_TRUE(usage.count("REG/NOTES/RDONLY"));
  ASSERT_TRUE(usage.count("REG/USER/RDONLY"));
  EXPECT_DOUBLE_EQ(usage.at("REG/NOTES/RDONLY").access_per_byte.mean(), 0.5);
  EXPECT_DOUBLE_EQ(usage.at("REG/NOTES/RDONLY").fraction_sessions_touching, 0.5);
  EXPECT_DOUBLE_EQ(usage.at("REG/USER/RDONLY").fraction_sessions_touching, 1.0);
}

TEST(Analyzer, EmptyLogYieldsNoSessions) {
  UsageLog log;
  const UsageAnalyzer analyzer(log);
  EXPECT_TRUE(analyzer.sessions().empty());
  EXPECT_DOUBLE_EQ(analyzer.response_per_byte_us(), 0.0);
}

// ---------------------------------------------------------------------------
// Reference analyzer: the original std::map implementation of
// UsageAnalyzer's pass and of per_category_usage, kept here as the oracle
// the production analyzer must match bit for bit (as merge_user_logs is for
// the runner's sorted-run merge).
// ---------------------------------------------------------------------------

struct ReferenceAnalysis {
  struct FileTouch {
    std::uint64_t bytes = 0;
    std::uint64_t file_size = 0;
    FileCategory category;
  };
  std::vector<SessionSummary> sessions;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::map<std::uint64_t, FileTouch>> touches;
  std::size_t op_count = 0;
  stats::RunningSummary access_size;
  stats::RunningSummary response;
  stats::RunningSummary data_response;
  std::map<fsmodel::FsOpType, OpTypeStats> per_op;
  double response_sum_us = 0.0;
  double data_bytes = 0.0;

  explicit ReferenceAnalysis(const UsageLog& log) {
    struct SessionAccumulator {
      double start = 0.0;
      double end = 0.0;
      std::uint64_t ops = 0;
      std::uint64_t bytes = 0;
      bool first = true;
    };
    std::map<std::pair<std::uint32_t, std::uint32_t>, SessionAccumulator> acc;
    for (const OpRecord& r : log.records()) {
      ++op_count;
      response.add(r.response_us);
      response_sum_us += r.response_us;
      auto& op_stats = per_op[r.op];
      op_stats.response_us.add(r.response_us);
      if (fsmodel::is_data_op(r.op)) {
        access_size.add(static_cast<double>(r.actual_bytes));
        data_response.add(r.response_us);
        op_stats.access_size.add(static_cast<double>(r.actual_bytes));
        data_bytes += static_cast<double>(r.actual_bytes);
      }
      const auto key = std::make_pair(r.user, r.session);
      auto& a = acc[key];
      if (a.first) {
        a.start = r.issue_time_us;
        a.first = false;
      }
      a.start = std::min(a.start, r.issue_time_us);
      a.end = std::max(a.end, r.issue_time_us + r.response_us);
      ++a.ops;
      if (fsmodel::is_data_op(r.op)) {
        a.bytes += r.actual_bytes;
        auto& touch = touches[key][r.file_id];
        touch.bytes += r.actual_bytes;
        touch.file_size = std::max(touch.file_size, r.file_size);
        touch.category = r.category;
      } else if (r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
        auto& touch = touches[key][r.file_id];
        touch.file_size = std::max(touch.file_size, r.file_size);
        touch.category = r.category;
      }
    }
    for (const auto& [key, a] : acc) {
      SessionSummary s;
      s.user = key.first;
      s.session = key.second;
      s.start_us = a.start;
      s.end_us = a.end;
      s.ops = a.ops;
      s.bytes_accessed = a.bytes;
      const auto touched = touches.find(key);
      if (touched != touches.end()) {
        s.files_referenced = touched->second.size();
        for (const auto& [file, t] : touched->second) {
          s.total_file_bytes += static_cast<double>(t.file_size);
        }
        if (s.files_referenced > 0) {
          s.mean_file_size = s.total_file_bytes / static_cast<double>(s.files_referenced);
        }
        if (s.total_file_bytes > 0.0) {
          s.access_per_byte = static_cast<double>(s.bytes_accessed) / s.total_file_bytes;
        }
      }
      sessions.push_back(s);
    }
  }

  std::map<std::string, CategoryUsage> per_category_usage() const {
    std::map<std::string, CategoryUsage> out;
    std::map<std::string, std::size_t> sessions_touching;
    for (const auto& [key, files] : touches) {
      std::map<std::string, std::size_t> files_in_category;
      for (const auto& [file, t] : files) {
        const std::string label = t.category.label();
        auto& usage = out[label];
        if (t.file_size > 0) {
          usage.access_per_byte.add(static_cast<double>(t.bytes) /
                                    static_cast<double>(t.file_size));
          usage.file_size.add(static_cast<double>(t.file_size));
        }
        ++files_in_category[label];
      }
      for (const auto& [label, count] : files_in_category) {
        out[label].files_per_session.add(static_cast<double>(count));
        ++sessions_touching[label];
      }
    }
    const double total_sessions = static_cast<double>(touches.size());
    if (total_sessions > 0.0) {
      for (auto& [label, usage] : out) {
        usage.fraction_sessions_touching =
            static_cast<double>(sessions_touching[label]) / total_sessions;
      }
    }
    return out;
  }

  double response_per_byte_us() const {
    return data_bytes > 0.0 ? response_sum_us / data_bytes : 0.0;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_summary(const stats::RunningSummary& actual,
                         const stats::RunningSummary& expected, const std::string& what) {
  ASSERT_EQ(actual.count(), expected.count()) << what;
  if (expected.count() == 0) return;
  EXPECT_EQ(bits(actual.mean()), bits(expected.mean())) << what;
  EXPECT_EQ(bits(actual.variance()), bits(expected.variance())) << what;
  EXPECT_EQ(bits(actual.min()), bits(expected.min())) << what;
  EXPECT_EQ(bits(actual.max()), bits(expected.max())) << what;
}

void expect_same_histogram(const stats::Histogram& actual, const stats::Histogram& expected,
                           const std::string& what) {
  EXPECT_EQ(bits(actual.low()), bits(expected.low())) << what;
  EXPECT_EQ(bits(actual.high()), bits(expected.high())) << what;
  EXPECT_EQ(actual.total(), expected.total()) << what;
  EXPECT_EQ(actual.counts(), expected.counts()) << what;
}

// The session histograms, rebuilt from the reference sessions exactly as
// UsageAnalyzer documents them.
stats::Histogram reference_histogram(const std::vector<SessionSummary>& sessions,
                                     double SessionSummary::*field, bool touched_only) {
  std::vector<double> values;
  for (const auto& s : sessions) {
    if (!touched_only || s.files_referenced > 0) values.push_back(s.*field);
  }
  if (values.empty()) return stats::Histogram(0.0, 1.0, 30);
  return stats::Histogram::from_data(values, 30);
}

// A log shaped to reach every branch of the analyzer: 240 users whose
// sessions interleave, issue times that jump backwards, all ten op types,
// files referenced only through open or creat, sessions that touch no file
// and touches of empty files.
UsageLog randomized_analysis_log() {
  util::RngStream rng(20261017, "analysis_reference");
  constexpr std::uint32_t kUsers = 240;
  constexpr fsmodel::FsOpType kOps[] = {
      fsmodel::FsOpType::open,   fsmodel::FsOpType::close, fsmodel::FsOpType::read,
      fsmodel::FsOpType::write,  fsmodel::FsOpType::creat, fsmodel::FsOpType::unlink,
      fsmodel::FsOpType::stat,   fsmodel::FsOpType::lseek, fsmodel::FsOpType::mkdir,
      fsmodel::FsOpType::readdir};
  constexpr fsmodel::FsOpType kNoTouchOps[] = {
      fsmodel::FsOpType::close, fsmodel::FsOpType::unlink, fsmodel::FsOpType::stat,
      fsmodel::FsOpType::lseek, fsmodel::FsOpType::mkdir,  fsmodel::FsOpType::readdir};
  std::vector<std::uint32_t> next_session(kUsers, 0);
  UsageLog log;
  double clock = 0.0;
  for (int burst = 0; burst < 6000; ++burst) {
    const auto user = static_cast<std::uint32_t>(rng.uniform_int(0, kUsers - 1));
    const std::uint32_t session = next_session[user];
    if (rng.uniform01() < 0.25) ++next_session[user];
    const bool no_touch = rng.uniform01() < 0.08;
    const int ops = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < ops; ++i) {
      OpRecord r;
      r.user = user;
      r.session = session;
      r.op = no_touch ? kNoTouchOps[rng.uniform_int(0, 5)] : kOps[rng.uniform_int(0, 9)];
      // Mostly forward in time, sometimes well behind the last record.
      clock += rng.uniform01() < 0.15 ? -rng.uniform01() * 5000.0 : rng.uniform01() * 300.0;
      r.issue_time_us = clock;
      r.response_us = rng.uniform01() * 2000.0;
      r.file_id = rng.uniform_int(1, 400);
      r.file_size = rng.uniform01() < 0.1 ? 0 : rng.uniform_int(1, 1 << 20);
      r.requested_bytes = rng.uniform_int(0, 65536);
      r.actual_bytes = std::min<std::uint64_t>(r.requested_bytes, r.file_size);
      r.category.file_type = rng.uniform01() < 0.2 ? FileType::directory : FileType::regular;
      r.category.owner = static_cast<FileOwner>(rng.uniform_int(0, 2));
      r.category.use = static_cast<UseMode>(rng.uniform_int(0, 3));
      log.append(r);
    }
  }
  // Files that only an open or a creat ever names, in sessions of their own.
  for (std::uint32_t user = 0; user < kUsers; user += 7) {
    OpRecord r;
    r.user = user;
    r.session = next_session[user] + 1;
    r.op = user % 2 == 0 ? fsmodel::FsOpType::open : fsmodel::FsOpType::creat;
    r.issue_time_us = 17.0 * user;
    r.response_us = 3.0;
    r.file_id = 100000 + user;
    r.file_size = user % 3 == 0 ? 0 : 4096;
    log.append(r);
  }
  return log;
}

TEST(Analyzer, MatchesTheMapReferenceBitForBit) {
  const UsageLog log = randomized_analysis_log();
  const ReferenceAnalysis expected(log);
  // The log reaches the cases it is built for.
  ASSERT_GE(expected.sessions.size(), 1000u);
  std::set<std::uint32_t> users;
  std::size_t backwards = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    users.insert(log.records()[i].user);
    if (i > 0 && log.records()[i].issue_time_us < log.records()[i - 1].issue_time_us) ++backwards;
  }
  ASSERT_GE(users.size(), 200u);
  ASSERT_GT(backwards, 100u);
  ASSERT_EQ(expected.per_op.size(), fsmodel::kFsOpTypeCount);
  ASSERT_LT(expected.touches.size(), expected.sessions.size());

  const UsageAnalyzer analyzer(log);
  EXPECT_EQ(analyzer.op_count(), expected.op_count);
  ASSERT_EQ(analyzer.sessions().size(), expected.sessions.size());
  for (std::size_t i = 0; i < expected.sessions.size(); ++i) {
    const SessionSummary& a = analyzer.sessions()[i];
    const SessionSummary& e = expected.sessions[i];
    const std::string what = "session " + std::to_string(i);
    EXPECT_EQ(a.user, e.user) << what;
    EXPECT_EQ(a.session, e.session) << what;
    EXPECT_EQ(bits(a.start_us), bits(e.start_us)) << what;
    EXPECT_EQ(bits(a.end_us), bits(e.end_us)) << what;
    EXPECT_EQ(a.ops, e.ops) << what;
    EXPECT_EQ(a.bytes_accessed, e.bytes_accessed) << what;
    EXPECT_EQ(a.files_referenced, e.files_referenced) << what;
    EXPECT_EQ(bits(a.total_file_bytes), bits(e.total_file_bytes)) << what;
    EXPECT_EQ(bits(a.mean_file_size), bits(e.mean_file_size)) << what;
    EXPECT_EQ(bits(a.access_per_byte), bits(e.access_per_byte)) << what;
  }

  const auto& per_op = analyzer.per_op_stats();
  ASSERT_EQ(per_op.size(), expected.per_op.size());
  for (const auto& [op, e] : expected.per_op) {
    ASSERT_TRUE(per_op.count(op)) << fsmodel::to_string(op);
    expect_same_summary(per_op.at(op).access_size, e.access_size,
                        std::string("access size of ") + fsmodel::to_string(op));
    expect_same_summary(per_op.at(op).response_us, e.response_us,
                        std::string("response of ") + fsmodel::to_string(op));
  }

  const auto usage = analyzer.per_category_usage();
  const auto expected_usage = expected.per_category_usage();
  ASSERT_EQ(usage.size(), expected_usage.size());
  for (const auto& [label, e] : expected_usage) {
    ASSERT_TRUE(usage.count(label)) << label;
    const CategoryUsage& a = usage.at(label);
    expect_same_summary(a.access_per_byte, e.access_per_byte, label + " access per byte");
    expect_same_summary(a.file_size, e.file_size, label + " file size");
    expect_same_summary(a.files_per_session, e.files_per_session, label + " files per session");
    EXPECT_EQ(bits(a.fraction_sessions_touching), bits(e.fraction_sessions_touching)) << label;
  }

  expect_same_histogram(
      analyzer.session_access_per_byte_histogram(),
      reference_histogram(expected.sessions, &SessionSummary::access_per_byte, true),
      "access per byte histogram");
  expect_same_histogram(
      analyzer.session_file_size_histogram(),
      reference_histogram(expected.sessions, &SessionSummary::mean_file_size, true),
      "file size histogram");
  std::vector<double> files;
  for (const auto& s : expected.sessions) files.push_back(static_cast<double>(s.files_referenced));
  expect_same_histogram(analyzer.session_files_histogram(),
                        stats::Histogram::from_data(files, 30), "files histogram");

  expect_same_summary(analyzer.response_stats(), expected.response, "response");
  expect_same_summary(analyzer.data_response_stats(), expected.data_response, "data response");
  expect_same_summary(analyzer.access_size_stats(), expected.access_size, "access size");
  EXPECT_EQ(bits(analyzer.response_per_byte_us()), bits(expected.response_per_byte_us()));
}

// ---------------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------------

TEST(Baseline, AndrewScriptPhasesRunInOrder) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel nfs(simulation);
  ScriptRunner runner(simulation, fsys, nfs);
  AndrewConfig config;
  config.directories = 2;
  config.files_per_directory = 3;
  const ScriptResult result = runner.run(make_andrew_script(config), andrew_phase_names());

  ASSERT_EQ(result.phase_us.size(), 6u);
  EXPECT_EQ(result.phase_names[2], "Copy");
  for (std::size_t i = 1; i < result.phase_us.size(); ++i) {
    EXPECT_GT(result.phase_us[i], 0.0) << result.phase_names[i];
  }
  // Copy moves the most bytes; it must dominate MakeDir.
  EXPECT_GT(result.phase_us[2], result.phase_us[1]);
  EXPECT_GT(result.ops, 50u);
  EXPECT_DOUBLE_EQ(result.total_us, simulation.now());

  // The simulated tree really exists.
  EXPECT_TRUE(fsys.exists("/andrew/d1/f2"));
  EXPECT_TRUE(fsys.exists("/andrew/d0/f0.o"));
  EXPECT_EQ(fsys.stat("/andrew/d1/f2").value().size, config.file_bytes);
}

TEST(Baseline, AndrewReadAllFasterWarmThanCopyPhase) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel nfs(simulation);
  ScriptRunner runner(simulation, fsys, nfs);
  const ScriptResult result = runner.run(make_andrew_script(AndrewConfig{}), andrew_phase_names());
  // ReadAll re-reads data the Copy phase pulled through the client cache.
  EXPECT_LT(result.phase_us[4], result.phase_us[2]);
}

TEST(Baseline, BuchholzUpdatesMasterInPlace) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel nfs(simulation);
  ScriptRunner runner(simulation, fsys, nfs);
  BuchholzConfig config;
  config.master_records = 64;
  config.detail_records = 32;
  const ScriptResult result =
      runner.run(make_buchholz_script(config), buchholz_phase_names(config));

  ASSERT_EQ(result.phase_us.size(), 2u);
  EXPECT_GT(result.phase_us[1], 0.0);
  const auto st = fsys.stat("/buchholz/master").value();
  EXPECT_EQ(st.size, 64u * config.record_bytes);  // in-place: size unchanged
  // Setup wrote ceil(64*120 / 2048) = 4 blocks; each of 32 updates wrote once.
  EXPECT_EQ(st.write_ops, 4u + 32u);
}

TEST(Baseline, BuchholzPassesScaleWork) {
  sim::Simulation s1, s2;
  fs::SimulatedFileSystem f1, f2;
  fsmodel::NfsModel m1(s1), m2(s2);
  BuchholzConfig one;
  one.passes = 1;
  BuchholzConfig three;
  three.passes = 3;
  const auto r1 = ScriptRunner(s1, f1, m1).run(make_buchholz_script(one), buchholz_phase_names(one));
  const auto r3 =
      ScriptRunner(s2, f2, m2).run(make_buchholz_script(three), buchholz_phase_names(three));
  EXPECT_EQ(r3.phase_us.size(), 4u);
  EXPECT_GT(r3.ops, r1.ops * 2);
}

TEST(Baseline, ScriptRunnerRecordsLog) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::WholeFileCacheModel afs(simulation);
  ScriptRunner runner(simulation, fsys, afs);
  std::vector<ScriptOp> script = {
      {fsmodel::FsOpType::mkdir, "/d", 0, -1, 0},
      {fsmodel::FsOpType::creat, "/d/f", 0, -1, 0},
      {fsmodel::FsOpType::write, "/d/f", 100, -1, 0},
      {fsmodel::FsOpType::close, "/d/f", 0, -1, 0},
  };
  const ScriptResult result = runner.run(script, {"only"});
  EXPECT_EQ(result.ops, 4u);
  EXPECT_EQ(result.log.size(), 4u);
  EXPECT_EQ(result.log.records()[2].actual_bytes, 100u);
}

}  // namespace
}  // namespace wlgen::core
