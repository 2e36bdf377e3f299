#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
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

/// Per-op-type statistics (Table 5.3's access size and response time, plus
/// the byte and service-time sums of the `ops.*` metrics).
struct OpTypeStats {
  stats::RunningSummary access_size;  ///< actual bytes (data ops only)
  stats::RunningSummary response_us;
  std::uint64_t bytes = 0;            ///< actual bytes over every call of the type
  double response_sum_us = 0.0;       ///< plain sum of response_us, in add order
};

/// The one per-record fold of a usage-log stream, per op type and in total.
/// The Usage Analyzer keeps its op-level statistics in one, RunnerStats
/// holds one next to its histogram, and obs::SimSample::export_into writes
/// the `ops.*` metrics from one.  Per-user folds merged in a fixed user
/// order give the same bits for any shard or thread count.
struct OpStats {
  static constexpr std::size_t kOps = fsmodel::kFsOpTypeCount;

  std::array<OpTypeStats, kOps> per_op{};  ///< indexed by FsOpType
  stats::RunningSummary response_us;        ///< every call
  stats::RunningSummary access_size;        ///< actual bytes per read/write call
  std::uint64_t bytes_moved = 0;            ///< actual bytes over read/write calls
  double response_sum_us = 0.0;             ///< every call, in add order

  /// Accumulates one call; `record.op` must be a valid FsOpType.
  void add(const OpRecord& record);

  /// Folds `other` in: summaries merge, sums add.
  void merge(const OpStats& other);

  std::uint64_t ops() const { return response_us.count(); }

  /// Total response over every call / bytes moved by read/write calls, the
  /// Figures 5.6–5.12 y-axis: opens, closes, creats and unlinks are part of
  /// the cost of moving those bytes (0 when no byte moved).
  double response_per_byte_us() const;
};

namespace detail {

/// The murmur3 finalizer: spreads every key bit over the low bits a table
/// masks with.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Open-addressing map from a key to a dense value (the caller's index of
/// the key's entry), probing linearly through a power-of-two table that is
/// kept at most half full.  `Hash` maps a key to a well-mixed 64-bit value.
template <typename Key, typename Hash>
class FlatIndex {
 public:
  /// The value stored for `key`, or — when `key` is absent — `fresh`, which
  /// is stored for it.
  std::uint32_t find_or_insert(const Key& key, std::size_t fresh) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.value == kEmpty) {
        if (fresh >= kEmpty) throw std::length_error("FlatIndex: too many table entries");
        slot = {key, static_cast<std::uint32_t>(fresh)};
        ++used_;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  struct Slot {
    Key key{};
    std::uint32_t value = kEmpty;
  };

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.value == kEmpty) continue;
      std::size_t i = Hash{}(slot.key) & mask;
      while (slots_[i].value != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

struct Mix64 {
  std::uint64_t operator()(std::uint64_t key) const { return mix64(key); }
};

}  // namespace detail

/// Numbers the distinct (user, session) pairs of a record stream in
/// first-seen order: count() is the sessions with at least one record.  The
/// analyzer, the sharded fold and the shared-machine and replay drivers all
/// count with it.  Memory grows with the sessions seen, never with a user
/// id's value (a trace may name user 4294967295).
class SessionCounter {
 public:
  /// A session's key: the user in the high half, the session in the low.
  static std::uint64_t key_of(const OpRecord& record) {
    return (std::uint64_t{record.user} << 32) | record.session;
  }

  /// The ordinal of `record`'s session: count() - 1 when it is new.
  std::uint32_t add(const OpRecord& record) {
    const std::uint64_t key = key_of(record);
    if (count_ == 0 || key != last_key_) {  // a session's next record skips the lookup
      last_ = index_.find_or_insert(key, count_);
      if (last_ == count_) ++count_;
      last_key_ = key;
    }
    return last_;
  }

  std::size_t count() const { return count_; }

 private:
  detail::FlatIndex<std::uint64_t, detail::Mix64> index_;
  std::uint64_t last_key_ = 0;
  std::uint32_t last_ = 0;
  std::size_t count_ = 0;
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
/// vector).  Per record the pass touches only flat tables: its OpStats fold
/// (an array indexed by FsOpType), per-session accumulators numbered by a
/// SessionCounter, and file touches found through a hash table on
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

  /// The op-level fold of every record: per op type and in total.
  const OpStats& op_stats() const { return ops_; }

  /// Actual bytes moved per read/write call (Table 5.3 "access size").
  const stats::RunningSummary& access_size_stats() const { return ops_.access_size; }

  /// Response time over every logged call (Table 5.3 "response time").
  const stats::RunningSummary& response_stats() const { return ops_.response_us; }

  /// Response time over read/write calls only.
  const stats::RunningSummary& data_response_stats() const { return data_response_; }

  /// Total response time across *every* file-access call divided by the
  /// bytes moved by read/write calls (OpStats::response_per_byte_us).
  double response_per_byte_us() const { return ops_.response_per_byte_us(); }

  /// Per-op-type breakdown of the op types that occurred.
  std::map<fsmodel::FsOpType, OpTypeStats> per_op_stats() const;

  /// Distribution of per-session access-per-byte (Figure 5.3 input).
  stats::Histogram session_access_per_byte_histogram(std::size_t bins = 30) const;

  /// Distribution of per-session mean file size (Figure 5.4 input).
  stats::Histogram session_file_size_histogram(std::size_t bins = 30) const;

  /// Distribution of per-session files referenced (Figure 5.5 input).
  stats::Histogram session_files_histogram(std::size_t bins = 30) const;

  /// Per-category usage aggregates keyed by category label.
  std::map<std::string, CategoryUsage> per_category_usage() const;

  std::size_t op_count() const { return ops_.ops(); }

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
  OpStats ops_;
  stats::RunningSummary data_response_;
};

}  // namespace wlgen::core
