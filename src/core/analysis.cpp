#include "core/analysis.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace wlgen::core {

namespace {

// A session's file: (accumulator index, file id).
struct TouchKey {
  std::uint64_t file_id = 0;
  std::uint32_t session = 0;
  bool operator==(const TouchKey&) const = default;
};

struct TouchHash {
  std::uint64_t operator()(const TouchKey& key) const {
    return detail::mix64(key.file_id ^ (std::uint64_t{key.session} * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace

// The one pass over the records: per-record state lives in flat tables in
// first-seen order; finish() puts it in (user, session, file id) order.
struct UsageAnalyzer::Pass {
  struct SessionAccumulator {
    std::uint64_t key = 0;  ///< SessionCounter::key_of
    double start = 0.0;
    double end = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
  };
  struct Touch {
    FileTouch touch;
    std::uint32_t session = 0;  ///< accumulator index
  };

  explicit Pass(UsageAnalyzer& out) : out(out) {}

  void add(const OpRecord& r) {
    const auto op = static_cast<std::size_t>(r.op);
    if (op >= fsmodel::kFsOpTypeCount) {
      throw std::invalid_argument("UsageAnalyzer: unknown op code " + std::to_string(op));
    }
    out.ops_.add(r);
    const bool data = fsmodel::is_data_op(r.op);
    if (data) out.data_response_.add(r.response_us);

    const std::uint32_t session = session_index.add(r);
    if (session == sessions.size()) {
      sessions.push_back({SessionCounter::key_of(r), r.issue_time_us, 0.0, 0, 0});
    }
    SessionAccumulator& a = sessions[session];
    a.start = std::min(a.start, r.issue_time_us);
    a.end = std::max(a.end, r.issue_time_us + r.response_us);
    ++a.ops;
    // Reads and writes reference their file; so does opening one, even if
    // no byte moves.
    if (data || r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
      const std::uint32_t t = touch_index.find_or_insert({r.file_id, session}, touches.size());
      if (t == touches.size()) touches.push_back({{r.file_id, 0, 0, {}}, session});
      FileTouch& touch = touches[t].touch;
      if (data) {
        a.bytes += r.actual_bytes;
        touch.bytes += r.actual_bytes;
      }
      touch.file_size = std::max(touch.file_size, r.file_size);
      touch.category = r.category;
    }
  }

  void finish() {
    // Sessions in (user, session) order; rank[i] is accumulator i's place.
    std::vector<std::uint32_t> order(sessions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
      return sessions[a].key < sessions[b].key;
    });
    std::vector<std::uint32_t> rank(sessions.size());
    for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = static_cast<std::uint32_t>(i);

    // Touches grouped by session rank (a counting sort), then each
    // session's by file id.
    std::vector<std::size_t>& begin = out.touch_begin_;
    begin.assign(sessions.size() + 1, 0);
    for (const Touch& t : touches) ++begin[rank[t.session] + 1];
    for (std::size_t i = 0; i < sessions.size(); ++i) begin[i + 1] += begin[i];
    std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
    out.touches_.resize(touches.size());
    for (const Touch& t : touches) out.touches_[next[rank[t.session]]++] = t.touch;
    touches = {};

    out.sessions_.reserve(sessions.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const SessionAccumulator& a = sessions[order[i]];
      const auto first = out.touches_.begin() + static_cast<std::ptrdiff_t>(begin[i]);
      const auto last = out.touches_.begin() + static_cast<std::ptrdiff_t>(begin[i + 1]);
      std::sort(first, last,
                [](const FileTouch& x, const FileTouch& y) { return x.file_id < y.file_id; });
      SessionSummary s;
      s.user = static_cast<std::uint32_t>(a.key >> 32);
      s.session = static_cast<std::uint32_t>(a.key);
      s.start_us = a.start;
      s.end_us = a.end;
      s.ops = a.ops;
      s.bytes_accessed = a.bytes;
      s.files_referenced = begin[i + 1] - begin[i];
      for (auto t = first; t != last; ++t) s.total_file_bytes += static_cast<double>(t->file_size);
      if (s.files_referenced > 0) {
        s.mean_file_size = s.total_file_bytes / static_cast<double>(s.files_referenced);
      }
      if (s.total_file_bytes > 0.0) {
        s.access_per_byte = static_cast<double>(s.bytes_accessed) / s.total_file_bytes;
      }
      out.sessions_.push_back(s);
    }
  }

  UsageAnalyzer& out;
  std::vector<SessionAccumulator> sessions;
  SessionCounter session_index;
  std::vector<Touch> touches;
  detail::FlatIndex<TouchKey, TouchHash> touch_index;
};

UsageAnalyzer::UsageAnalyzer(LogReader& reader) {
  Pass pass(*this);
  OpRecord record;
  while (reader.next(record)) pass.add(record);
  pass.finish();
}

UsageAnalyzer::UsageAnalyzer(const UsageLog& log) {
  Pass pass(*this);
  for (const OpRecord& record : log.records()) pass.add(record);
  pass.finish();
}

void OpStats::add(const OpRecord& record) {
  OpTypeStats& op = per_op[static_cast<std::size_t>(record.op)];
  op.response_us.add(record.response_us);
  op.response_sum_us += record.response_us;
  op.bytes += record.actual_bytes;
  response_us.add(record.response_us);
  response_sum_us += record.response_us;
  if (fsmodel::is_data_op(record.op)) {
    const auto bytes = static_cast<double>(record.actual_bytes);
    op.access_size.add(bytes);
    access_size.add(bytes);
    bytes_moved += record.actual_bytes;
  }
}

void OpStats::merge(const OpStats& other) {
  for (std::size_t op = 0; op < kOps; ++op) {
    per_op[op].access_size.merge(other.per_op[op].access_size);
    per_op[op].response_us.merge(other.per_op[op].response_us);
    per_op[op].bytes += other.per_op[op].bytes;
    per_op[op].response_sum_us += other.per_op[op].response_sum_us;
  }
  response_us.merge(other.response_us);
  access_size.merge(other.access_size);
  bytes_moved += other.bytes_moved;
  response_sum_us += other.response_sum_us;
}

double OpStats::response_per_byte_us() const {
  return bytes_moved > 0 ? response_sum_us / static_cast<double>(bytes_moved) : 0.0;
}

std::map<fsmodel::FsOpType, OpTypeStats> UsageAnalyzer::per_op_stats() const {
  std::map<fsmodel::FsOpType, OpTypeStats> out;
  for (std::size_t op = 0; op < OpStats::kOps; ++op) {
    const OpTypeStats& stats = ops_.per_op[op];
    if (stats.response_us.count() > 0) out.emplace(static_cast<fsmodel::FsOpType>(op), stats);
  }
  return out;
}

namespace {

stats::Histogram histogram_of(const std::vector<double>& values, std::size_t bins) {
  if (values.empty()) return stats::Histogram(0.0, 1.0, bins);
  return stats::Histogram::from_data(values, bins);
}

}  // namespace

stats::Histogram UsageAnalyzer::session_access_per_byte_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    if (s.files_referenced > 0) values.push_back(s.access_per_byte);
  }
  return histogram_of(values, bins);
}

stats::Histogram UsageAnalyzer::session_file_size_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    if (s.files_referenced > 0) values.push_back(s.mean_file_size);
  }
  return histogram_of(values, bins);
}

stats::Histogram UsageAnalyzer::session_files_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) values.push_back(static_cast<double>(s.files_referenced));
  return histogram_of(values, bins);
}

std::map<std::string, CategoryUsage> UsageAnalyzer::per_category_usage() const {
  std::map<std::string, CategoryUsage> out;
  std::map<std::string, std::size_t> sessions_touching;
  std::map<FileCategory, std::string> labels;  // one label string per category
  std::size_t touched_sessions = 0;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (touch_begin_[i] == touch_begin_[i + 1]) continue;
    ++touched_sessions;
    std::map<std::string, std::size_t> files_in_category;
    for (std::size_t t = touch_begin_[i]; t < touch_begin_[i + 1]; ++t) {
      const FileTouch& touch = touches_[t];
      auto [label, fresh] = labels.try_emplace(touch.category);
      if (fresh) label->second = touch.category.label();
      auto& usage = out[label->second];
      if (touch.file_size > 0) {
        usage.access_per_byte.add(static_cast<double>(touch.bytes) /
                                  static_cast<double>(touch.file_size));
        usage.file_size.add(static_cast<double>(touch.file_size));
      }
      ++files_in_category[label->second];
    }
    for (const auto& [label, count] : files_in_category) {
      out[label].files_per_session.add(static_cast<double>(count));
      ++sessions_touching[label];
    }
  }
  const double total_sessions = static_cast<double>(touched_sessions);
  if (total_sessions > 0.0) {
    for (auto& [label, usage] : out) {
      usage.fraction_sessions_touching =
          static_cast<double>(sessions_touching[label]) / total_sessions;
    }
  }
  return out;
}

}  // namespace wlgen::core
