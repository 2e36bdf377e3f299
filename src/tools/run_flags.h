#pragma once

#include "scenario/run.h"
#include "scenario/spec.h"
#include "util/args.h"

namespace wlgen::cli {

/// What `wlgen run`'s flags compile to (flag table: docs/SCENARIOS.md
/// "`wlgen run` flags").  Sharded and contended runs are a scenario for
/// scenario::run_scenario.  A `classic` run (neither --shards nor
/// --contended) is the one shared-machine run at the root seed,
/// runner::run_shared on the spec's scenario::workload_config; it has no
/// scenario mode of its own, so its spec is validated under sharded-mode
/// rules (which accept exactly the keys the classic flags set) and
/// `spec.mode` is never read.
struct RunPlan {
  scenario::ScenarioSpec spec;
  scenario::RunOptions options;
  bool classic = false;
  bool verify_merge = false;  ///< --verify-merge (sharded only)
};

/// Compiles `wlgen run` flags into a RunPlan.  The spec is built as the
/// `.scn` text the flags stand for and parsed by ScenarioSpec::parse, so
/// the CLI gets exactly the checks a scenario file gets.  Spill flags imply
/// each other upward: --resume => --checkpoint => --spill, and --spool-dir
/// => --spill.  Throws std::invalid_argument naming the offending flag on a
/// positional argument, a flag its path does not take, two flags setting
/// the same key, or any value the scenario parser rejects.
RunPlan run_plan(const util::Args& args);

}  // namespace wlgen::cli
