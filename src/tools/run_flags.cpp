#include "tools/run_flags.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "tools/cli_spec.h"
#include "util/config.h"

namespace wlgen::cli {

namespace {

/// Origin of the generated scenario text; parse errors are rewritten to
/// name the flag before they reach the user.
constexpr const char* kOrigin = "wlgen run";

enum class Needs { any, runner, shards, contended };

/// One `run` flag and the scenario key it sets ("" for RunOptions and CLI
/// actions); `needs` is the mode flag that must accompany it.
struct RunFlag {
  const char* flag;
  const char* key;
  Needs needs;
};

const RunFlag kRunFlags[] = {
    {"users", "workload.users", Needs::any},
    {"sessions", "workload.sessions", Needs::any},
    {"model", "model.name", Needs::any},
    {"heavy", "workload.heavy_fraction", Needs::any},
    {"seed", "scenario.seed", Needs::any},
    {"markov", "workload.markov", Needs::any},
    {"pattern", "workload.pattern", Needs::any},
    {"windows", "workload.windows", Needs::any},
    {"spec", "workload.gds", Needs::any},
    {"log", "output.log", Needs::any},
    {"shards", "sharded.shards", Needs::shards},
    {"threads", "scenario.threads", Needs::runner},
    {"verify-merge", "", Needs::shards},
    {"spill", "log.spill", Needs::shards},
    {"spool-dir", "log.spool_dir", Needs::shards},
    {"checkpoint", "log.checkpoint", Needs::shards},
    {"resume", "sharded.resume", Needs::shards},
    {"contended", "", Needs::contended},  // scenario.mode, set up front
    {"users-sweep", "workload.users", Needs::contended},
    {"replications", "contended.replications", Needs::contended},
    {"metrics", "", Needs::any},
    {"trace", "", Needs::any},
    {"trace-events", "", Needs::any},
    {"progress", "", Needs::any},
};

/// Quoted Config value: exact for any flag text (#, ;, spaces, quotes).
std::string quote(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out + "\"";
}

/// The scenario text the flags stand for, one `key = "value"` line per
/// entry.  Each entry remembers the flag that set it, so a parse error on
/// line N is reported against that flag.
class FlagText {
 public:
  /// Sets `key`; a second flag setting the same key is a conflict.
  void set(const std::string& key, const std::string& value, const std::string& source) {
    if (const Entry* entry = find(key)) {
      throw std::invalid_argument(entry->source + " and " + source + " both set " + key +
                                  "; pick one");
    }
    entries_.push_back({key, value, source});
  }

  /// Sets `key` unless an earlier flag already did (the upward implications).
  void imply(const std::string& key, const std::string& value, const std::string& source) {
    if (find(key) == nullptr) entries_.push_back({key, value, source});
  }

  scenario::ScenarioSpec parse() const {
    std::string text;
    for (const Entry& entry : entries_) text += entry.key + " = " + quote(entry.value) + "\n";
    try {
      return scenario::ScenarioSpec::parse(util::Config::parse_text(text, kOrigin));
    } catch (const std::invalid_argument& e) {
      // "wlgen run:N: detail" -> "<flag that set line N>: detail".
      const std::string message = e.what();
      const std::size_t prefix = std::string(kOrigin).size() + 1;
      const std::size_t colon = message.find(": ", prefix);
      if (message.rfind(kOrigin, 0) != 0 || colon == std::string::npos) throw;
      const std::size_t line = std::stoul(message.substr(prefix, colon - prefix));
      const std::string detail = message.substr(colon + 2);
      if (line == 0 || line > entries_.size() || entries_[line - 1].source.empty()) {
        throw std::invalid_argument(detail);
      }
      throw std::invalid_argument(entries_[line - 1].source + ": " + detail);
    }
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::string source;  ///< "--flag value" as typed; "" for fixed entries
  };

  const Entry* find(const std::string& key) const {
    for (const Entry& entry : entries_) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
};

}  // namespace

RunPlan run_plan(const util::Args& args) {
  if (!args.positional.empty()) {
    throw std::invalid_argument("unexpected argument '" + args.positional.front() +
                                "' (run takes only --flags)");
  }
  const bool sharded = args.flags.count("shards") != 0;
  const bool contended = args.boolean("contended");

  FlagText text;
  text.set("scenario.name", "cli-run", "");
  // The mode flags first, so --shards with --contended is one clear conflict.
  if (sharded) text.set("scenario.mode", "sharded", "--shards");
  if (contended) text.set("scenario.mode", "contended", "--contended");
  if (!sharded && !contended) text.set("scenario.mode", "sharded", "");  // see RunPlan
  for (const RunFlag& flag : kRunFlags) {
    if (!args.flags.count(flag.flag)) continue;
    const std::string name = std::string("--") + flag.flag;
    const bool taken = flag.needs == Needs::any ||
                       (flag.needs == Needs::runner && (sharded || contended)) ||
                       (flag.needs == Needs::shards && sharded) ||
                       (flag.needs == Needs::contended && contended);
    if (!taken) {
      throw std::invalid_argument(name + " requires " +
                                  (flag.needs == Needs::runner   ? "--shards or --contended"
                                   : flag.needs == Needs::shards ? "--shards"
                                                                 : "--contended"));
    }
    if (*flag.key == '\0') continue;
    if (boolean_flags().count(flag.flag) != 0) {
      text.set(flag.key, "true", name);
    } else {
      const std::string value = args.get(flag.flag, "");
      text.set(flag.key, value, name + " " + value);
    }
  }
  if (contended && !args.flags.count("users") && !args.flags.count("users-sweep")) {
    text.set("workload.users", "1:6:1", "--contended");
  }
  if (args.boolean("resume")) text.imply("log.checkpoint", "true", "--resume");
  for (const char* flag : {"spill", "spool-dir", "checkpoint", "resume"}) {
    if (!args.flags.count(flag)) continue;
    text.imply("log.spill", "true", std::string("--") + flag);
    text.imply("log.spool_dir", ".wlgen-spool/cli-run", "");
  }

  RunPlan plan;
  plan.spec = text.parse();
  plan.classic = !sharded && !contended;
  plan.verify_merge = args.boolean("verify-merge");
  if (plan.verify_merge) plan.spec.collect_log = true;  // the check reads the kept log
  plan.options.metrics_file = args.get("metrics", "");
  plan.options.trace_file = args.get("trace", "");
  if (args.flags.count("trace-events")) {
    plan.options.trace_events = args.count("trace-events", 65536);
  }
  if (args.boolean("progress")) plan.options.progress = true;
  return plan;
}

}  // namespace wlgen::cli
