#include "core/usage_log.h"

#include <charconv>
#include <stdexcept>
#include <thread>

#include "core/log_sink.h"
#include "util/strings.h"

namespace wlgen::core {

namespace {

constexpr std::size_t kRecordFields = 12;

// Column names of usage_log_header_line, for parse errors.
constexpr const char* kFieldNames[kRecordFields] = {
    "issue_us",  "response_us", "user",      "session", "op",    "req_bytes",
    "act_bytes", "file_id",     "file_size", "ftype",   "owner", "use"};

fsmodel::FsOpType op_from_string(std::string_view name) {
  using fsmodel::FsOpType;
  for (FsOpType op : {FsOpType::open, FsOpType::close, FsOpType::read, FsOpType::write,
                      FsOpType::creat, FsOpType::unlink, FsOpType::stat, FsOpType::lseek,
                      FsOpType::mkdir, FsOpType::readdir}) {
    if (name == fsmodel::to_string(op)) return op;
  }
  throw std::invalid_argument("unknown op '" + std::string(name) + "'");
}

FileType file_type_from_int(int v) {
  if (v == 0) return FileType::directory;
  if (v == 1) return FileType::regular;
  throw std::invalid_argument("bad file type " + std::to_string(v));
}

FileOwner owner_from_int(int v) {
  if (v < 0 || v > 2) throw std::invalid_argument("bad owner " + std::to_string(v));
  return static_cast<FileOwner>(v);
}

UseMode use_from_int(int v) {
  if (v < 0 || v > 3) throw std::invalid_argument("bad use mode " + std::to_string(v));
  return static_cast<UseMode>(v);
}

[[noreturn]] void throw_malformed(std::size_t index, std::string_view field) {
  throw std::invalid_argument("field " + std::to_string(index + 1) + " (" +
                              kFieldNames[index] + "): malformed number '" +
                              std::string(field) + "'");
}

// The canonical field (what format_record_text writes) goes through
// from_chars; anything else (padding, '+', hex, inf/nan, out of range)
// takes the historical strtod path, so both accept the same set of fields
// and agree on every value: where from_chars consumes the whole field, the
// field is a plain decimal number that strtod rounds identically.
double parse_double_field(std::string_view field, std::size_t index) {
  const char* first = field.data();
  const char* last = first + field.size();
  const char* digits = first != last && *first == '-' ? first + 1 : first;
  if (digits != last && *digits >= '0' && *digits <= '9') {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && ptr == last) return value;
  }
  if (const auto value = util::parse_double(field)) return *value;
  throw_malformed(index, field);
}

// util::parse_int is from_chars after a trim, so an untrimmed from_chars
// that consumes the whole field gives exactly its value.
long long parse_int_field(std::string_view field, std::size_t index) {
  const char* last = field.data() + field.size();
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  if (ec == std::errc() && ptr == last) return value;
  if (const auto slow = util::parse_int(field)) return *slow;
  throw_malformed(index, field);
}

template <typename T>
char* put_int(char* out, T value) {
  return std::to_chars(out, out + 24, value).ptr;
}

}  // namespace

const char* usage_log_header_line() {
  return "# issue_us\tresponse_us\tuser\tsession\top\treq_bytes\tact_bytes\tfile_id\t"
         "file_size\tftype\towner\tuse\n";
}

char* format_record_text(const OpRecord& r, char* out) {
  // 2 x 24 (doubles) + 2 x 10 + 7 (op) + 4 x 20 + 3 x 11 + 12 separators
  // = 200 bytes at most, inside kMaxRecordTextBytes.
  const auto put_double = [](char* p, double v) {
    return std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
  };
  out = put_double(out, r.issue_time_us);
  *out++ = '\t';
  out = put_double(out, r.response_us);
  *out++ = '\t';
  out = put_int(out, r.user);
  *out++ = '\t';
  out = put_int(out, r.session);
  *out++ = '\t';
  for (const char* name = fsmodel::to_string(r.op); *name != '\0'; ++name) *out++ = *name;
  *out++ = '\t';
  out = put_int(out, r.requested_bytes);
  *out++ = '\t';
  out = put_int(out, r.actual_bytes);
  *out++ = '\t';
  out = put_int(out, r.file_id);
  *out++ = '\t';
  out = put_int(out, r.file_size);
  *out++ = '\t';
  out = put_int(out, static_cast<int>(r.category.file_type));
  *out++ = '\t';
  out = put_int(out, static_cast<int>(r.category.owner));
  *out++ = '\t';
  out = put_int(out, static_cast<int>(r.category.use));
  *out++ = '\n';
  return out;
}

OpRecord parse_record_line(std::string_view line) {
  std::string_view fields[kRecordFields];
  std::size_t count = 0;
  for (std::size_t start = 0;;) {
    const std::size_t tab = line.find('\t', start);
    if (count < kRecordFields) fields[count] = line.substr(start, tab - start);
    ++count;
    if (tab == std::string_view::npos) break;
    start = tab + 1;
  }
  if (count != kRecordFields) {
    throw std::invalid_argument("expected " + std::to_string(kRecordFields) +
                                " fields, got " + std::to_string(count));
  }
  // Integers are read as long long and narrowed by cast, as they always
  // were: "-1" in a u64 field reads as UINT64_MAX, values past INT64_MAX
  // are rejected.
  const auto number = [&](std::size_t i) { return parse_int_field(fields[i], i); };
  OpRecord r;
  r.issue_time_us = parse_double_field(fields[0], 0);
  r.response_us = parse_double_field(fields[1], 1);
  r.user = static_cast<std::uint32_t>(number(2));
  r.session = static_cast<std::uint32_t>(number(3));
  r.op = op_from_string(fields[4]);
  r.requested_bytes = static_cast<std::uint64_t>(number(5));
  r.actual_bytes = static_cast<std::uint64_t>(number(6));
  r.file_id = static_cast<std::uint64_t>(number(7));
  r.file_size = static_cast<std::uint64_t>(number(8));
  r.category.file_type = file_type_from_int(static_cast<int>(number(9)));
  r.category.owner = owner_from_int(static_cast<int>(number(10)));
  r.category.use = use_from_int(static_cast<int>(number(11)));
  return r;
}

std::string UsageLog::serialize() const {
  std::string text = usage_log_header_line();
  char line[kMaxRecordTextBytes];
  for (const auto& record : records_) text.append(line, format_record_text(record, line));
  return text;
}

UsageLog UsageLog::parse(const std::string& text) {
  return parse_log_text(text, std::thread::hardware_concurrency());
}

}  // namespace wlgen::core
