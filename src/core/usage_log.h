#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.h"
#include "fsmodel/model.h"

namespace wlgen::core {

/// One logged system call — a line of the paper's "Usage log file"
/// (Figure 4.1): who did what to which file, how many bytes moved, and how
/// long the call took on the simulated clock.
struct OpRecord {
  double issue_time_us = 0.0;     ///< simulated time the call was issued
  double response_us = 0.0;       ///< completion - issue (queueing included)
  std::uint32_t user = 0;
  std::uint32_t session = 0;      ///< login session ordinal for this user
  fsmodel::FsOpType op = fsmodel::FsOpType::read;
  std::uint64_t requested_bytes = 0;  ///< bytes asked for (read/write)
  std::uint64_t actual_bytes = 0;     ///< bytes moved (EOF-truncated)
  std::uint64_t file_id = 0;          ///< inode
  std::uint64_t file_size = 0;        ///< file size observed at the call
  FileCategory category;
};

/// Append-only usage log with text round-tripping, consumed by the Usage
/// Analyzer exactly as in the paper's pipeline.
class UsageLog {
 public:
  void append(OpRecord record) { records_.push_back(record); }

  const std::vector<OpRecord>& records() const { return records_; }
  std::vector<OpRecord>& records_mutable() { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Tab-separated text serialisation (one record per line, with a header).
  /// Uses the same format_record_text as log_sink.h's write_log_text and
  /// write_log_file — identical text to streaming a LogReader directly.
  std::string serialize() const;

  /// Parses serialize() output on every core (log_sink.h parse_log_text).
  /// Throws std::invalid_argument on bad input.
  static UsageLog parse(const std::string& text);

 private:
  std::vector<OpRecord> records_;
};

/// Shared text codec behind UsageLog::serialize/parse and the streaming
/// adapters in log_sink.h — one definition of the line format.
const char* usage_log_header_line();

/// Upper bound on the bytes format_record_text writes for one record.
inline constexpr std::size_t kMaxRecordTextBytes = 256;

/// Writes one record line, '\n' included, at `out` (which must have room for
/// kMaxRecordTextBytes) and returns one past its last byte.  Doubles are
/// std::to_chars general/17 — by definition printf's %.17g, the bytes an
/// ostream at precision(17) prints — written with integer arithmetic for
/// finite values in [1, 2^53).
char* format_record_text(const OpRecord& record, char* out);

/// Parses one non-comment record line; throws std::invalid_argument naming
/// the offending field.  A line in the form format_record_text writes is
/// read in one pass; any other goes to detail::parse_record_fields, so the
/// accepted inputs, their values and the error texts are exactly those of
/// the historical strtod-based parser.
OpRecord parse_record_line(std::string_view line);

namespace detail {

/// parse_record_line's general path: split the line at every tab, then read
/// each field with std::from_chars, falling back to util::parse_double/
/// parse_int (trimmed, strtod for doubles).  Public so tests can hold the
/// one-pass path to it.
OpRecord parse_record_fields(std::string_view line);

}  // namespace detail

}  // namespace wlgen::core
