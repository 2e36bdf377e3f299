#pragma once

#include <map>
#include <vector>

#include "core/log_sink.h"
#include "core/usage_log.h"
#include "core/workload.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace wlgen::core {

/// Per-login-session aggregates — the quantities whose distributions the
/// paper plots in Figures 5.3–5.5 ("average access-per-byte, average file
/// size and average number of files referenced").
struct SessionSummary {
  std::uint32_t user = 0;
  std::uint32_t session = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t bytes_accessed = 0;      ///< actual bytes over read+write calls
  std::size_t files_referenced = 0;      ///< distinct files touched
  double total_file_bytes = 0.0;         ///< sum of referenced files' sizes
  double mean_file_size = 0.0;           ///< total_file_bytes / files_referenced
  double access_per_byte = 0.0;          ///< bytes_accessed / total_file_bytes
};

/// Per-op-type statistics (Table 5.3's access size and response time).
struct OpTypeStats {
  stats::RunningSummary access_size;  ///< actual bytes (data ops only)
  stats::RunningSummary response_us;
};

/// Per-category usage re-derivation (cross-check against Table 5.2).
struct CategoryUsage {
  stats::RunningSummary access_per_byte;    ///< per touched file
  stats::RunningSummary file_size;          ///< per touched file
  stats::RunningSummary files_per_session;  ///< over sessions touching the category
  double fraction_sessions_touching = 0.0;
};

/// The paper's "Usage Analyzer ... for users to analyze the results and
/// display them graphically" (section 5.1): turns a usage-log stream into
/// session summaries, per-syscall statistics and the figure histograms.
///
/// Consumes a LogReader in ONE streaming pass — a spilled million-user run
/// analyzes in bounded memory (per-session accumulators, never the record
/// vector).  Per record the pass touches only flat tables: per-op stats in
/// an array indexed by FsOpType, per-session accumulators found through a
/// hash table on (user, session), and file touches through a hash table on
/// (session, file id).  Everything whose value depends on an order is built
/// once at the end: sessions sorted by (user, session), each session's
/// touches by file id, so every sum adds its terms in the same order, and
/// every statistic is bit-identical with the original ordered-map analyzer
/// (tests/analysis_test.cpp keeps it as the reference).
class UsageAnalyzer {
 public:
  explicit UsageAnalyzer(LogReader& reader);

  /// Convenience over a materialized log (walks its records in place).
  explicit UsageAnalyzer(const UsageLog& log);

  const std::vector<SessionSummary>& sessions() const { return sessions_; }

  /// Actual bytes moved per read/write call (Table 5.3 "access size").
  const stats::RunningSummary& access_size_stats() const { return access_size_; }

  /// Response time over every logged call (Table 5.3 "response time").
  const stats::RunningSummary& response_stats() const { return response_; }

  /// Response time over read/write calls only.
  const stats::RunningSummary& data_response_stats() const { return data_response_; }

  /// Total response time across *every* file-access call divided by the
  /// bytes moved by read/write calls — the "average response time per byte"
  /// y-axis of Figures 5.6–5.12.  Opens, closes, creats and unlinks are part
  /// of the cost of accessing those bytes (and under contention they absorb
  /// most of the queueing), so they belong in the numerator.
  double response_per_byte_us() const;

  /// Per-op-type breakdown.
  const std::map<fsmodel::FsOpType, OpTypeStats>& per_op_stats() const { return per_op_; }

  /// Distribution of per-session access-per-byte (Figure 5.3 input).
  stats::Histogram session_access_per_byte_histogram(std::size_t bins = 30) const;

  /// Distribution of per-session mean file size (Figure 5.4 input).
  stats::Histogram session_file_size_histogram(std::size_t bins = 30) const;

  /// Distribution of per-session files referenced (Figure 5.5 input).
  stats::Histogram session_files_histogram(std::size_t bins = 30) const;

  /// Per-category usage aggregates keyed by category label.
  std::map<std::string, CategoryUsage> per_category_usage() const;

  std::size_t op_count() const { return op_count_; }

 private:
  struct Pass;  // the streaming pass's hash tables (analysis.cpp)

  struct FileTouch {
    std::uint64_t file_id = 0;
    std::uint64_t bytes = 0;
    std::uint64_t file_size = 0;
    FileCategory category;
  };

  std::vector<SessionSummary> sessions_;
  // Every referenced file, kept for category breakdowns: sessions_[i]'s
  // touches are touches_[touch_begin_[i], touch_begin_[i + 1]), by file id.
  std::vector<FileTouch> touches_;
  std::vector<std::size_t> touch_begin_;
  std::size_t op_count_ = 0;
  stats::RunningSummary access_size_;
  stats::RunningSummary response_;
  stats::RunningSummary data_response_;
  std::map<fsmodel::FsOpType, OpTypeStats> per_op_;
  double response_sum_us_ = 0.0;
  double data_bytes_ = 0.0;
};

}  // namespace wlgen::core
