#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wlgen::util {

/// Tiny CLI argument parser: positional arguments plus --key flags.
///
/// Accepted flag forms:
///   --key value     (value may be anything that is not itself a known form,
///                    including negatives like "-1" — range checks happen in
///                    the typed getters)
///   --key=value     (always unambiguous; the only way to give a value that
///                    starts with "--")
///   --key           (boolean; stored as "true")
///
/// Flags named in `boolean_flags` never consume the next token, so
/// `wlgen experiments --check fig5_1` keeps "fig5_1" positional instead of
/// silently swallowing it as --check's value — the historical parser bug.
/// A boolean flag given an explicit `--key=value` is rejected.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  /// Parses argv[start..argc).  Throws std::invalid_argument on
  /// `--bool-flag=value`.
  static Args parse(int argc, char** argv, int start,
                    const std::set<std::string>& boolean_flags = {});

  /// Same, over a token vector (the testable entry point).
  static Args parse(const std::vector<std::string>& tokens,
                    const std::set<std::string>& boolean_flags = {});

  /// Raw string value, or `fallback` when the flag is absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Finite floating-point value; throws std::invalid_argument on a
  /// malformed number, nan or inf.
  double number(const std::string& key, double fallback) const;

  /// Non-negative integral count (--users, --sessions, --shards, ...).
  /// Strict integer parse: throws std::invalid_argument on malformed,
  /// negative, fractional or out-of-long-long-range values — the historical
  /// parser static_cast a double straight to std::size_t, so `--users -1`
  /// (or an overflowing magnitude) was undefined behaviour.
  std::size_t count(const std::string& key, std::size_t fallback) const;

  /// True when the flag was given (with any value).
  bool boolean(const std::string& key) const { return flags.count(key) != 0; }

  /// Throws std::invalid_argument naming the first flag not in `known` —
  /// without this a misspelled flag (`--chek fig5_1`) parses as an unknown
  /// key that silently swallows the next token and is never read.
  void require_known(const std::set<std::string>& known) const;
};

/// Declaration of one --flag: the single source of truth from which both
/// the parser contract (known flags, boolean set) and the help text are
/// derived, so usage strings can never drift from what the parser accepts.
struct FlagSpec {
  std::string name;   ///< without the leading "--"
  std::string value;  ///< metavar ("N", "FILE", ...); empty = boolean flag
  std::string help;   ///< one-line description

  bool is_boolean() const { return value.empty(); }
};

/// Declaration of one subcommand: its positional shape, summary and flags.
/// Every command implicitly accepts a boolean --help flag; flag_names() and
/// boolean_flag_names() include it so dispatchers need no special casing.
struct CommandSpec {
  std::string name;         ///< "run", "experiments", ...
  std::string positionals;  ///< "<spec-file>" or "" when flags-only
  std::string summary;      ///< one-line description
  std::vector<FlagSpec> flags;

  /// Every accepted flag name (declared + "help") — feed to
  /// Args::require_known.
  std::set<std::string> flag_names() const;

  /// Names of the flags that never consume a following token (declared
  /// booleans + "help") — feed to Args::parse.
  std::set<std::string> boolean_flag_names() const;

  /// "program name <positionals> [--flag VALUE] [--bool]" wrapped to
  /// `width` columns with aligned continuation lines.
  std::string usage_line(const std::string& program, std::size_t width = 78) const;
};

/// The multi-command "usage:" block (one usage_line per command).
std::string render_usage(const std::string& program,
                         const std::vector<CommandSpec>& commands);

/// Detailed per-command help: summary, usage line, and one aligned
/// "--flag VALUE  help" row per flag (plus the implicit --help).
std::string render_command_help(const std::string& program, const CommandSpec& command);

}  // namespace wlgen::util
