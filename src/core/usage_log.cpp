#include "core/usage_log.h"

#include <array>
#include <bit>
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

struct OpName {
  std::string_view name;
  fsmodel::FsOpType op;
};

// fsmodel::to_string's names with their lengths known, so a lookup costs
// no strlen (log_sink_test checks every op against to_string).
constexpr OpName kOpNames[] = {
    {"open", fsmodel::FsOpType::open},     {"close", fsmodel::FsOpType::close},
    {"read", fsmodel::FsOpType::read},     {"write", fsmodel::FsOpType::write},
    {"creat", fsmodel::FsOpType::creat},   {"unlink", fsmodel::FsOpType::unlink},
    {"stat", fsmodel::FsOpType::stat},     {"lseek", fsmodel::FsOpType::lseek},
    {"mkdir", fsmodel::FsOpType::mkdir},   {"readdir", fsmodel::FsOpType::readdir}};

// fsmodel::to_string's inverse; false for any other name.
bool find_op(std::string_view name, fsmodel::FsOpType& op) {
  for (const OpName& entry : kOpNames) {
    if (name == entry.name) {
      op = entry.op;
      return true;
    }
  }
  return false;
}

fsmodel::FsOpType op_from_string(std::string_view name) {
  fsmodel::FsOpType op{};
  if (!find_op(name, op)) throw std::invalid_argument("unknown op '" + std::string(name) + "'");
  return op;
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

// One left-to-right pass over a line whose every field is a bare number
// (or op name) running up to its tab, the last up to the end of the line:
// what format_record_text writes.  It never throws.  On any other line it
// returns false and parse_record_line takes the general path from the
// start, so errors and their precedence are the general path's; where it
// succeeds, the general path gives the same values, because each field it
// reads is one the general path reads whole with from_chars too, and the
// op and category checks are the same checks.
bool parse_canonical_line(std::string_view line, OpRecord& r) {
  const char* p = line.data();
  const char* const end = p + line.size();
  // Each reader stops at the field's tab and steps over it.
  const auto at_tab = [&](const char* stop) {
    if (stop == end || *stop != '\t') return false;
    p = stop + 1;
    return true;
  };
  const auto read_double = [&](double& value) {
    const char* digits = p != end && *p == '-' ? p + 1 : p;
    if (digits == end || *digits < '0' || *digits > '9') return false;
    const auto [stop, ec] = std::from_chars(p, end, value);
    return ec == std::errc() && at_tab(stop);
  };
  const auto read_int = [&](long long& value) {
    const auto [stop, ec] = std::from_chars(p, end, value);
    return ec == std::errc() && at_tab(stop);
  };
  long long user = 0, session = 0, requested = 0, actual = 0, file_id = 0, file_size = 0;
  long long file_type = 0, owner = 0;
  if (!read_double(r.issue_time_us) || !read_double(r.response_us) || !read_int(user) ||
      !read_int(session)) {
    return false;
  }
  const char* op_end = p;
  while (op_end != end && *op_end != '\t') ++op_end;
  if (!find_op(std::string_view(p, static_cast<std::size_t>(op_end - p)), r.op) ||
      !at_tab(op_end) || !read_int(requested) || !read_int(actual) || !read_int(file_id) ||
      !read_int(file_size) || !read_int(file_type) || !read_int(owner)) {
    return false;
  }
  long long use = 0;
  const auto [stop, ec] = std::from_chars(p, end, use);
  if (ec != std::errc() || stop != end) return false;
  // Narrowed by cast, as the general path narrows them.
  const int type_code = static_cast<int>(file_type);
  const int owner_code = static_cast<int>(owner);
  const int use_code = static_cast<int>(use);
  if (type_code < 0 || type_code > 1 || owner_code < 0 || owner_code > 2 || use_code < 0 ||
      use_code > 3) {
    return false;
  }
  r.user = static_cast<std::uint32_t>(user);
  r.session = static_cast<std::uint32_t>(session);
  r.requested_bytes = static_cast<std::uint64_t>(requested);
  r.actual_bytes = static_cast<std::uint64_t>(actual);
  r.file_id = static_cast<std::uint64_t>(file_id);
  r.file_size = static_cast<std::uint64_t>(file_size);
  r.category = {file_type_from_int(type_code), owner_from_int(owner_code), use_from_int(use_code)};
  return true;
}

template <typename T>
char* put_int(char* out, T value) {
  return std::to_chars(out, out + 24, value).ptr;
}

// 10^0 .. 10^16: the fraction scales of put_double.
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 17> pow10{};
  pow10[0] = 1;
  for (std::size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
  return pow10;
}();

// std::to_chars(general, 17), i.e. %.17g.  A finite v in [1, 2^53) is
// I + f / 2^s with integer I of d <= 16 digits, so %.17g prints I and then
// k = 17 - d fraction digits, round(f * 10^k / 2^s) with ties to even,
// without trailing zeros.  f < 2^52 and 10^k <= 10^16 keep that product
// in 128 bits, and integer arithmetic leaves the bytes independent of FMA
// contraction and the rounding mode.  Every other value takes to_chars.
char* put_double(char* out, double v) {
  using u128 = unsigned __int128;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased_exponent = static_cast<int>(bits >> 52);  // >= 2048 when negative
  if (biased_exponent < 1023 || biased_exponent > 1023 + 52) {
    return std::to_chars(out, out + 32, v, std::chars_format::general, 17).ptr;
  }
  const int s = 1023 + 52 - biased_exponent;  // fraction bits, 0..52
  const std::uint64_t mantissa = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  std::uint64_t integer = mantissa >> s;
  const std::uint64_t fraction = mantissa & ((1ull << s) - 1);
  char* p = put_int(out, integer);
  if (fraction == 0) return p;
  const auto k = static_cast<std::size_t>(17 - (p - out));
  const u128 scaled = static_cast<u128>(fraction) * kPow10[k];
  auto digits = static_cast<std::uint64_t>(scaled >> s);
  const u128 rest = scaled & ((static_cast<u128>(1) << s) - 1);
  const u128 half = static_cast<u128>(1) << (s - 1);
  if (rest > half || (rest == half && (digits & 1) != 0)) ++digits;
  // Rounding up to I + 1 needs a double within half a 17th digit below
  // 10^d, and none is (the ulps around each 10^d are tested), but the digit
  // loop below relies on digits < 10^k.
  if (digits == kPow10[k]) return put_int(out, integer + 1);
  if (digits == 0) return p;
  *p++ = '.';
  char* last = p + k;
  for (char* d = last; d != p; digits /= 10) *--d = static_cast<char>('0' + digits % 10);
  while (last[-1] == '0') --last;
  return last;
}

}  // namespace

const char* usage_log_header_line() {
  return "# issue_us\tresponse_us\tuser\tsession\top\treq_bytes\tact_bytes\tfile_id\t"
         "file_size\tftype\towner\tuse\n";
}

char* format_record_text(const OpRecord& r, char* out) {
  // 2 x 24 (doubles) + 2 x 10 + 7 (op) + 4 x 20 + 3 x 11 + 12 separators
  // = 200 bytes at most, inside kMaxRecordTextBytes.
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
  OpRecord r;
  if (parse_canonical_line(line, r)) return r;
  return detail::parse_record_fields(line);
}

OpRecord detail::parse_record_fields(std::string_view line) {
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
