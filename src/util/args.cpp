#include "util/args.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace wlgen::util {

Args Args::parse(int argc, char** argv, int start, const std::set<std::string>& boolean_flags) {
  std::vector<std::string> tokens;
  for (int i = start; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse(tokens, boolean_flags);
}

Args Args::parse(const std::vector<std::string>& tokens,
                 const std::set<std::string>& boolean_flags) {
  Args out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& arg = tokens[i];
    if (!starts_with(arg, "--")) {
      out.positional.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      if (boolean_flags.count(key) != 0) {
        throw std::invalid_argument("flag --" + key + " is boolean and takes no value");
      }
      out.flags[key] = body.substr(eq + 1);
      continue;
    }
    if (boolean_flags.count(body) != 0) {
      out.flags[body] = "true";
      continue;
    }
    if (i + 1 < tokens.size() && !starts_with(tokens[i + 1], "--")) {
      out.flags[body] = tokens[++i];
    } else {
      out.flags[body] = "true";  // trailing / value-less flag
    }
  }
  return out;
}

void Args::require_known(const std::set<std::string>& known) const {
  for (const auto& [key, value] : flags) {
    if (known.count(key) == 0) {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double Args::number(const std::string& key, double fallback) const {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v || !std::isfinite(*v)) {
    // strtod reads "nan" and "inf", and NaN passes every `x <= bound` check.
    throw std::invalid_argument("flag --" + key + " expects a finite number, got '" +
                                it->second + "'");
  }
  return *v;
}

std::size_t Args::count(const std::string& key, std::size_t fallback) const {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  // Strict integer parse (no doubles): "-1", "1.5", "1e20" and values past
  // the long long range are all rejected with one clear error, instead of
  // the old float-to-size_t cast whose out-of-range behaviour was undefined.
  const auto v = parse_int(it->second);
  if (!v || *v < 0) {
    throw std::invalid_argument("flag --" + key + " expects a non-negative integer, got '" +
                                it->second + "'");
  }
  return static_cast<std::size_t>(*v);
}

namespace {

const FlagSpec kHelpFlag{"help", "", "print this help text"};

std::string flag_token(const FlagSpec& flag) {
  return flag.is_boolean() ? "[--" + flag.name + "]"
                           : "[--" + flag.name + " " + flag.value + "]";
}

}  // namespace

std::set<std::string> CommandSpec::flag_names() const {
  std::set<std::string> names{kHelpFlag.name};
  for (const auto& flag : flags) names.insert(flag.name);
  return names;
}

std::set<std::string> CommandSpec::boolean_flag_names() const {
  std::set<std::string> names{kHelpFlag.name};
  for (const auto& flag : flags) {
    if (flag.is_boolean()) names.insert(flag.name);
  }
  return names;
}

std::string CommandSpec::usage_line(const std::string& program, std::size_t width) const {
  const std::string head = program + " " + name;
  std::string line = head;
  if (!positionals.empty()) line += " " + positionals;
  const std::string indent(head.size() + 1, ' ');

  std::string out;
  for (const auto& flag : flags) {
    const std::string token = flag_token(flag);
    if (line.size() + 1 + token.size() > width) {
      out += line + "\n";
      line = indent + token;
    } else {
      line += " " + token;
    }
  }
  out += line;
  return out;
}

std::string render_usage(const std::string& program,
                         const std::vector<CommandSpec>& commands) {
  std::string out = "usage:\n";
  for (const auto& command : commands) {
    // Two-space margin on every line of the wrapped usage.
    for (const auto& line : split(command.usage_line(program, 76), '\n')) {
      out += "  " + line + "\n";
    }
  }
  out += "run '" + program + " <command> --help' for per-flag detail\n";
  return out;
}

std::string render_command_help(const std::string& program, const CommandSpec& command) {
  std::string out = program + " " + command.name + " — " + command.summary + "\n\n";
  for (const auto& line : split(command.usage_line(program, 76), '\n')) {
    out += "  " + line + "\n";
  }

  std::vector<FlagSpec> all = command.flags;
  all.push_back(kHelpFlag);
  std::size_t label_width = 0;
  std::vector<std::string> labels;
  for (const auto& flag : all) {
    std::string label = "--" + flag.name;
    if (!flag.is_boolean()) label += " " + flag.value;
    label_width = std::max(label_width, label.size());
    labels.push_back(std::move(label));
  }
  if (!all.empty()) out += "\nflags:\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += "  " + labels[i] + std::string(label_width - labels[i].size() + 2, ' ') +
           all[i].help + "\n";
  }
  return out;
}

}  // namespace wlgen::util
