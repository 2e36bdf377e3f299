#include "util/config.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace wlgen::util {

namespace {

[[noreturn]] void parse_fail(const std::string& origin, int line, const std::string& message) {
  throw std::invalid_argument(origin + ":" + std::to_string(line) + ": " + message);
}

bool valid_key(std::string_view key) {
  if (key.empty() || key.front() == '.' || key.back() == '.') return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Parses the text after '=': either a quoted string (escapes honoured,
/// nothing but a comment may follow the closing quote) or a bare value cut
/// at the first # or ; and trimmed.
std::string parse_value(const std::string& origin, int line, std::string_view raw) {
  std::string_view text = raw;
  // Leading whitespace.
  std::size_t start = 0;
  while (start < text.size() && (text[start] == ' ' || text[start] == '\t')) ++start;
  text.remove_prefix(start);

  if (!text.empty() && text.front() == '"') {
    std::string value;
    std::size_t i = 1;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\\') {
        if (i + 1 >= text.size()) parse_fail(origin, line, "dangling backslash in quoted value");
        const char e = text[++i];
        if (e == '"') value += '"';
        else if (e == '\\') value += '\\';
        else if (e == 'n') value += '\n';
        else if (e == 't') value += '\t';
        else parse_fail(origin, line, std::string("unknown escape '\\") + e + "' in quoted value");
        continue;
      }
      if (c == '"') break;
      value += c;
    }
    if (i >= text.size()) parse_fail(origin, line, "unterminated quoted value");
    const std::string rest = trim(text.substr(i + 1));
    if (!rest.empty() && rest.front() != '#' && rest.front() != ';') {
      parse_fail(origin, line, "unexpected text after closing quote: '" + rest + "'");
    }
    return value;
  }

  // Bare value: cut at comment, trim.
  const std::size_t hash = text.find_first_of("#;");
  if (hash != std::string_view::npos) text = text.substr(0, hash);
  return trim(text);
}

}  // namespace

Config Config::parse_text(const std::string& text, const std::string& origin) {
  Config config;
  config.origin_ = origin;

  std::istringstream in(text);
  std::string raw;
  std::string section;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string stripped = trim(raw);
    if (stripped.empty() || stripped.front() == '#' || stripped.front() == ';') continue;

    if (stripped.front() == '[') {
      const std::size_t close = stripped.find(']');
      if (close == std::string::npos) parse_fail(origin, line, "unterminated section header");
      const std::string rest = trim(stripped.substr(close + 1));
      if (!rest.empty() && rest.front() != '#' && rest.front() != ';') {
        parse_fail(origin, line, "unexpected text after section header: '" + rest + "'");
      }
      section = trim(stripped.substr(1, close - 1));
      if (!valid_key(section)) {
        parse_fail(origin, line, "invalid section name '" + section + "'");
      }
      continue;
    }

    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      parse_fail(origin, line, "expected 'key = value', got '" + stripped + "'");
    }
    const std::string key_part = trim(stripped.substr(0, eq));
    if (!valid_key(key_part)) {
      parse_fail(origin, line, "invalid key '" + key_part + "'");
    }
    const std::string key = section.empty() ? key_part : section + "." + key_part;
    const auto existing = config.entries_.find(key);
    if (existing != config.entries_.end()) {
      parse_fail(origin, line,
                 "duplicate key '" + key + "' (first defined on line " +
                     std::to_string(existing->second.line) + ")");
    }
    config.entries_[key] = {parse_value(origin, line, stripped.substr(eq + 1)), line};
    config.order_.push_back(key);
  }
  return config;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument(path + ": cannot open config file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_text(buffer.str(), path);
}

bool Config::has(const std::string& key) const { return entries_.count(key) != 0; }

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? fallback : it->second.value;
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const auto v = parse_int(it->second.value);
  if (!v) fail(key, "expects an integer, got '" + it->second.value + "'");
  return *v;
}

std::size_t Config::get_size(const std::string& key, std::size_t fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const auto v = parse_int(it->second.value);
  if (!v || *v < 0) fail(key, "expects a non-negative integer, got '" + it->second.value + "'");
  return static_cast<std::size_t>(*v);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const auto v = parse_double(it->second.value);
  // strtod reads "nan" and "inf", and NaN passes every `x <= bound` check.
  if (!v || !std::isfinite(*v)) {
    fail(key, "expects a finite number, got '" + it->second.value + "'");
  }
  return *v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string v = to_lower(it->second.value);
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  fail(key, "expects a boolean (true/false, yes/no, on/off, 1/0), got '" + it->second.value +
                "'");
}

std::vector<std::string> Config::get_list(const std::string& key) const {
  std::vector<std::string> pieces;
  for (const auto& piece : split(get_string(key), ',')) {
    const std::string trimmed = trim(piece);
    if (!trimmed.empty()) pieces.push_back(trimmed);
  }
  return pieces;
}

std::vector<std::string> Config::keys_with_prefix(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& key : order_) {
    if (starts_with(key, prefix)) out.push_back(key);
  }
  return out;
}

int Config::line_of(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.line;
}

void Config::require_known(const std::set<std::string>& known,
                           const std::vector<std::string>& known_prefixes) const {
  for (const auto& key : order_) {
    if (known.count(key) != 0) continue;
    bool matched = false;
    for (const auto& prefix : known_prefixes) {
      if (starts_with(key, prefix)) {
        matched = true;
        break;
      }
    }
    if (!matched) fail(key, "is not a recognised key");
  }
}

void Config::fail(const std::string& key, const std::string& message) const {
  parse_fail(origin_, line_of(key), "key '" + key + "' " + message);
}

}  // namespace wlgen::util
