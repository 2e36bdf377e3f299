#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wlgen::util {

/// Splits text on a delimiter character; adjacent delimiters yield empty
/// pieces (exactly like the classic strsep behaviour).
std::vector<std::string> split(std::string_view text, char delim);

/// Splits on arbitrary whitespace, discarding empty pieces.
std::vector<std::string> split_whitespace(std::string_view text);

/// Removes leading and trailing whitespace.
std::string trim(std::string_view text);

/// trim() without the copy: a view of `text` minus its outer whitespace.
std::string_view trim_view(std::string_view text);

/// Parses a double; returns nullopt for malformed input.
std::optional<double> parse_double(std::string_view text);

/// Parses a non-negative integer; returns nullopt for malformed input.
std::optional<long long> parse_int(std::string_view text);

/// True when `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lowercases ASCII text.
std::string to_lower(std::string_view text);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Lowercases ASCII alphanumerics and collapses every other run of
/// characters into a single underscore ("Figure 5.6" -> "figure_5_6").
/// Leading/trailing separators are trimmed; empty input yields "artifact".
std::string slugify(std::string_view text);

/// Slugifies a file name while preserving a short alphanumeric extension:
/// "Figure 5.6.svg" -> "figure_5_6.svg".
std::string slugify_filename(std::string_view name);

}  // namespace wlgen::util
