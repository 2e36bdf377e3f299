#include "tools/cli_spec.h"

#include <stdexcept>

namespace wlgen::cli {

const std::vector<util::CommandSpec>& command_specs() {
  static const std::vector<util::CommandSpec> specs = {
      {"gds",
       "<spec-file>",
       "parse a distribution spec file and report/plot its entries",
       {
           {"plot", "NAME", "ASCII-plot the named distribution's density"},
           {"cdf", "NAME", "print a CDF table for the named distribution"},
           {"points", "N", "CDF table resolution (default 64)"},
       }},
      {"run",
       "",
       "generate a synthetic workload and measure it (the flags build a scenario)",
       {
           {"users", "N", "simultaneous users (default 1)"},
           {"sessions", "M", "login sessions per user (default 50)"},
           {"model", "nfs|local|wholefile", "file-system model (default nfs)"},
           {"heavy", "F", "heavy-user fraction of the population (default 1.0)"},
           {"seed", "S", "root RNG seed (default 1991)"},
           {"markov", "P", "Markov work-item persistence in [0,1); negative = independent"},
           {"pattern", "seq|random|zipf", "block access pattern (default seq)"},
           {"windows", "W", "concurrent login sessions per user (default 1)"},
           {"spec", "FILE", "GDS file overriding think_time / access_size"},
           {"log", "OUT.tsv", "write the usage log (classic, --shards: else only --spill keeps it)"},
           {"shards", "K", "sharded scenario: K shards of independent user universes"},
           {"threads", "T", "worker threads (--shards/--contended; 0 = hardware)"},
           {"verify-merge", "", "keep the log and check it is (time, user) ordered (--shards)"},
           {"spill", "", "stream the log to sorted disk runs, bounded RSS (--shards)"},
           {"spool-dir", "DIR", "spill run/checkpoint directory (default .wlgen-spool/cli-run)"},
           {"checkpoint", "", "persist per-shard checkpoints (implies --spill)"},
           {"resume", "", "skip shards with valid checkpoints (implies --checkpoint)"},
           {"contended", "", "contended scenario: shared-machine load sweep"},
           {"users-sweep", "A:B:STEP", "contended load points (default 1:6:1)"},
           {"replications", "R", "contended replications per load point (default 3)"},
           {"metrics", "OUT.json", "write an observability metrics report"},
           {"trace", "OUT.json", "write a Chrome-loadable span trace"},
           {"trace-events", "N", "trace ring budget in events (default 65536)"},
           {"progress", "", "live progress heartbeat on stderr"},
       }},
      {"analyze",
       "<log.tsv>",
       "per-op and summary statistics of a recorded usage log",
       {}},
      {"replay",
       "<log.tsv>",
       "replay a recorded trace against a file-system model",
       {
           {"model", "M", "target model (default nfs)"},
           {"closed-loop", "", "issue each op after the previous completes (default: open)"},
           {"scale", "X", "stretch (>1) or compress (<1) the trace clock"},
       }},
      {"experiments",
       "",
       "run the registered paper figure/table experiments",
       {
           {"only", "id[,id...]", "run only the named experiments"},
           {"check", "", "grade against paper expectations; exit 1 on FAIL"},
           {"list", "", "list registered experiments and exit"},
           {"out", "DIR", "artifact directory (default $WLGEN_OUT or ./artifacts)"},
           {"scale", "F", "session-count scale factor (default 1.0)"},
           {"seed", "S", "root RNG seed (default 1991)"},
           {"threads", "N", "harness worker threads (0 = hardware)"},
           {"replications", "R", "contended replications per load point (default 3)"},
           {"verbose", "", "print per-experiment progress"},
           {"progress", "", "live progress heartbeat on stderr"},
       }},
      {"scenario",
       "run <file.scn>...",
       "execute declarative scenario files (see docs/SCENARIOS.md)",
       {
           {"list", "", "list the scenario library and exit"},
           {"print", "FILE", "parse a scenario and print its resolved spec"},
           {"dir", "DIR", "scenario library directory for --list (default scenarios)"},
           {"threads", "N", "override every scenario's thread count (results unchanged)"},
           {"metrics", "OUT.json", "override/enable the obs.metrics report file"},
           {"trace", "OUT.json", "override/enable the obs.trace span trace file"},
           {"trace-events", "N", "override the obs.trace_events ring budget"},
           {"progress", "", "force the live progress heartbeat on"},
       }},
      {"lint",
       "",
       "run the determinism linter over the source tree (see DESIGN.md)",
       {
           {"root", "DIR", "source tree to lint (default src)"},
           {"rules", "", "print the rule table with rationales and exit"},
       }},
      {"version",
       "",
       "print build provenance (git SHA, build type, compiler)",
       {}},
  };
  return specs;
}

const util::CommandSpec& command_spec(const std::string& name) {
  for (const auto& spec : command_specs()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown command '" + name + "'");
}

const std::set<std::string>& boolean_flags() {
  static const std::set<std::string> flags = [] {
    std::set<std::string> out;
    for (const auto& spec : command_specs()) {
      const auto booleans = spec.boolean_flag_names();
      out.insert(booleans.begin(), booleans.end());
    }
    return out;
  }();
  return flags;
}

}  // namespace wlgen::cli
