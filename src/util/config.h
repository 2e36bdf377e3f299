#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace wlgen::util {

/// Minimal INI/TOML-subset configuration parser — the file format behind the
/// scenario subsystem (`*.scn`, see docs/SCENARIOS.md) and reusable by any
/// future declarative surface.
///
/// Grammar (line oriented):
///
///   # full-line comment        ; also a comment
///   [section]                  # keys below are stored as "section.key"
///   key = value                # bare value: trimmed, cut at # or ; comment
///   key = "quoted value"       # may contain #, ;, leading/trailing spaces;
///                              # escapes: \" \\ \n \t
///   other.key = 3              # dotted keys allowed (model overrides)
///
/// Values are kept as raw strings and parsed by the typed getters, so a type
/// error can name the file, the line, and the offending text.  Duplicate
/// keys, unterminated quotes, text after a closing quote, and lines without
/// '=' are all parse errors.  Every error is a std::invalid_argument whose
/// message starts with "origin:line:".
class Config {
 public:
  /// Parses configuration text.  `origin` names the source in error
  /// messages (a file path, or "<string>" for inline text).
  static Config parse_text(const std::string& text, const std::string& origin = "<string>");

  /// Reads and parses a file; a missing/unreadable file is a
  /// std::invalid_argument naming the path.
  static Config parse_file(const std::string& path);

  /// True when `key` ("section.key" for sectioned entries) is present.
  bool has(const std::string& key) const;

  /// Raw string value, or `fallback` when absent.
  std::string get_string(const std::string& key, const std::string& fallback = "") const;

  /// Integer value; throws std::invalid_argument (with line number) on a
  /// malformed or fractional value.
  long long get_int(const std::string& key, long long fallback) const;

  /// Non-negative integer (sizes, counts); rejects negatives.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;

  /// Finite floating-point value; throws std::invalid_argument (with line
  /// number) on a malformed number, nan or inf.
  double get_double(const std::string& key, double fallback) const;

  /// Boolean: true/false, yes/no, on/off, 1/0 (case-insensitive).
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list; pieces are trimmed, empties dropped.
  std::vector<std::string> get_list(const std::string& key) const;

  /// All keys in file order.
  const std::vector<std::string>& keys() const { return order_; }

  /// Keys starting with `prefix`, in file order.
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// 1-based line a key was defined on (0 when absent).
  int line_of(const std::string& key) const;

  /// Throws std::invalid_argument naming the first key (with its line) that
  /// is neither in `known` nor under one of `known_prefixes` — the
  /// misspelled-key guard every Config consumer should call.
  void require_known(const std::set<std::string>& known,
                     const std::vector<std::string>& known_prefixes = {}) const;

  const std::string& origin() const { return origin_; }

 private:
  struct Entry {
    std::string value;
    int line = 0;
  };

  [[noreturn]] void fail(const std::string& key, const std::string& message) const;

  std::string origin_;
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

}  // namespace wlgen::util
