#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace wlgen::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string trim(std::string_view text) { return std::string(trim_view(text)); }

std::string_view trim_view(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string t = trim(text);
  if (t.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

std::optional<long long> parse_int(std::string_view text) {
  const std::string t = trim(text);
  if (t.empty()) return std::nullopt;
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc() || ptr != t.data() + t.size()) return std::nullopt;
  return v;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string slugify(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_sep = false;
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(std::tolower(c));
    } else {
      pending_sep = true;
    }
  }
  return out.empty() ? "artifact" : out;
}

std::string slugify_filename(std::string_view name) {
  const std::size_t dot = name.rfind('.');
  if (dot != std::string_view::npos && dot + 1 < name.size()) {
    const std::string_view ext = name.substr(dot + 1);
    const bool alnum_ext = ext.size() <= 5 &&
                           std::all_of(ext.begin(), ext.end(), [](unsigned char c) {
                             return std::isalnum(c) != 0;
                           });
    if (alnum_ext) return slugify(name.substr(0, dot)) + "." + to_lower(ext);
  }
  return slugify(name);
}

}  // namespace wlgen::util
