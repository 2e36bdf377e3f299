#include "scenario/spec.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/presets.h"
#include "core/spec.h"
#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::scenario {

namespace {

[[noreturn]] void fail(const util::Config& config, const std::string& key,
                       const std::string& message) {
  throw std::invalid_argument(config.origin() + ":" + std::to_string(config.line_of(key)) +
                              ": key '" + key + "' " + message);
}

/// "N", "A:B" (step 1) or "A:B:STEP" → the sweep points; throws
/// std::invalid_argument on malformed or empty sweeps.
std::vector<std::size_t> parse_user_sweep(const std::string& spec) {
  const std::vector<std::string> parts = util::split(spec, ':');
  auto part = [&](std::size_t i) -> std::size_t {
    const auto v = util::parse_int(parts[i]);
    if (!v || *v < 0) {
      throw std::invalid_argument("user sweep expects A:B:STEP of non-negative integers, "
                                  "got '" + spec + "'");
    }
    return static_cast<std::size_t>(*v);
  };
  if (parts.empty() || parts.size() > 3) {
    throw std::invalid_argument("user sweep expects N, A:B or A:B:STEP, got '" + spec + "'");
  }
  const std::size_t lo = part(0);
  const std::size_t hi = parts.size() >= 2 ? part(1) : lo;
  const std::size_t step = parts.size() == 3 ? part(2) : 1;
  if (lo == 0 || hi < lo || step == 0) {
    throw std::invalid_argument("user sweep needs 1 <= A <= B and STEP >= 1, got '" + spec +
                                "'");
  }
  std::vector<std::size_t> points;
  for (std::size_t users = lo; users <= hi; users += step) points.push_back(users);
  return points;
}

RunMode parse_mode(const util::Config& config) {
  const std::string mode = config.get_string("scenario.mode", "contended");
  if (mode == "sharded") return RunMode::sharded;
  if (mode == "contended") return RunMode::contended;
  if (mode == "replay") return RunMode::replay;
  fail(config, "scenario.mode",
       "expects sharded | contended | replay, got '" + mode + "'");
}

core::AccessPattern parse_pattern(const util::Config& config) {
  const std::string pattern = config.get_string("workload.pattern", "seq");
  if (pattern == "seq") return core::AccessPattern::sequential;
  if (pattern == "random") return core::AccessPattern::uniform_random;
  if (pattern == "zipf") return core::AccessPattern::zipf_block;
  fail(config, "workload.pattern", "expects seq | random | zipf, got '" + pattern + "'");
}

/// Keys that are only meaningful under one mode: naming one under another
/// mode is almost certainly a mistaken scenario, so it fails loudly.
const std::map<std::string, RunMode>& mode_scoped_keys() {
  static const std::map<std::string, RunMode> keys = {
      {"sharded.shards", RunMode::sharded},
      {"sharded.resume", RunMode::sharded},
      {"log.spill", RunMode::sharded},
      {"log.spool_dir", RunMode::sharded},
      {"log.checkpoint", RunMode::sharded},
      {"contended.replications", RunMode::contended},
      {"contended.confidence", RunMode::contended},
      {"replay.trace", RunMode::replay},
      {"replay.closed_loop", RunMode::replay},
      {"replay.time_scale", RunMode::replay},
      {"replay.synthetic_users", RunMode::replay},
  };
  return keys;
}

std::vector<ModelChoice> parse_models(const util::Config& config) {
  if (config.has("model.name") && config.has("model.names")) {
    fail(config, "model.names", "conflicts with model.name; pick one");
  }
  std::vector<std::string> names;
  if (config.has("model.names")) {
    names = config.get_list("model.names");
    if (names.empty()) fail(config, "model.names", "expects at least one model name");
  } else {
    names.push_back(config.get_string("model.name", "nfs"));
  }

  const std::string name_key = config.has("model.names") ? "model.names" : "model.name";
  std::vector<ModelChoice> models;
  for (const auto& name : names) {
    try {
      (void)runner::model_param_keys(name);  // validates the backend name
    } catch (const std::invalid_argument& e) {
      fail(config, name_key, std::string("names an ") + e.what());
    }
    if (std::count(names.begin(), names.end(), name) > 1) {
      fail(config, name_key, "lists model '" + name + "' more than once");
    }
    models.push_back({name, {}});
  }

  // Overrides: every dotted key under [model] must be "<chosen model>.<param>".
  for (const auto& key : config.keys_with_prefix("model.")) {
    if (key == "model.name" || key == "model.names") continue;
    const std::string body = key.substr(std::string("model.").size());
    const std::size_t dot = body.find('.');
    if (dot == std::string::npos) {
      fail(config, key, "is not a recognised key (overrides are <model>.<parameter>)");
    }
    const std::string model_name = body.substr(0, dot);
    const std::string param = body.substr(dot + 1);
    const auto it = std::find_if(models.begin(), models.end(),
                                 [&](const ModelChoice& m) { return m.name == model_name; });
    if (it == models.end()) {
      fail(config, key, "overrides model '" + model_name +
                            "', which this scenario does not run (see model.name/names)");
    }
    const double value = config.get_double(key, 0.0);
    it->overrides.push_back({param, value});
    // Validate key + value domain now, so a bad scenario fails at parse
    // time with the file's line number instead of mid-run.
    try {
      (void)runner::model_factory_by_name(it->name, it->overrides);
    } catch (const std::invalid_argument& e) {
      fail(config, key, std::string("is invalid: ") + e.what());
    }
  }
  return models;
}

/// Parses a "A:B[:C]" colon tuple of doubles from one comma-list element;
/// fails on the owning key with the element echoed.
std::vector<double> parse_tuple(const util::Config& config, const std::string& key,
                                const std::string& element, std::size_t arity) {
  const std::vector<std::string> parts = util::split(element, ':');
  if (parts.size() != arity) {
    fail(config, key, "expects " + std::to_string(arity) +
                          " colon-separated numbers per entry, got '" + element + "'");
  }
  std::vector<double> values;
  for (const auto& part : parts) {
    const auto v = util::parse_double(util::trim(part));
    if (!v) fail(config, key, "has a non-numeric component in '" + element + "'");
    values.push_back(*v);
  }
  return values;
}

/// [arrivals] + [faults] — the open-system traffic engine (src/traffic/).
/// Scenario times are seconds; TrafficConfig carries µs.
traffic::TrafficConfig parse_traffic(const util::Config& config,
                                     std::size_t default_sessions) {
  traffic::TrafficConfig traffic;

  const bool arrivals_on = !config.keys_with_prefix("arrivals.").empty();
  if (arrivals_on) {
    traffic::ArrivalConfig arrivals;
    const std::string process = config.get_string("arrivals.process", "poisson");
    if (process == "poisson") {
      arrivals.kind = traffic::ArrivalKind::poisson;
    } else if (process == "mmpp") {
      arrivals.kind = traffic::ArrivalKind::mmpp;
    } else if (process == "heavy") {
      arrivals.kind = traffic::ArrivalKind::heavy;
    } else {
      fail(config, "arrivals.process",
           "expects poisson | mmpp | heavy, got '" + process + "'");
    }
    arrivals.rate_per_sec = config.get_double("arrivals.rate", 1.0);
    if (arrivals.rate_per_sec <= 0.0) {
      fail(config, "arrivals.rate", "expects a positive session arrival rate per second");
    }
    arrivals.sessions = config.get_size("arrivals.sessions", default_sessions);
    if (arrivals.sessions == 0) fail(config, "arrivals.sessions", "expects at least 1 session");

    for (const auto& element : config.get_list("arrivals.diurnal")) {
      const std::vector<double> knot = parse_tuple(config, "arrivals.diurnal", element, 2);
      arrivals.profile.points.push_back({knot[0] * 1e6, knot[1]});
    }
    arrivals.profile.flash_at_us = config.get_double("arrivals.flash_at", 0.0) * 1e6;
    arrivals.profile.flash_duration_us =
        config.get_double("arrivals.flash_duration", 0.0) * 1e6;
    arrivals.profile.flash_magnitude = config.get_double("arrivals.flash_magnitude", 1.0);
    if ((config.has("arrivals.flash_at") || config.has("arrivals.flash_magnitude")) &&
        !config.has("arrivals.flash_duration")) {
      fail(config, "arrivals.flash_at",
           "needs arrivals.flash_duration (seconds) to bound the flash crowd");
    }

    arrivals.burst_ratio = config.get_double("arrivals.burst_ratio", 8.0);
    arrivals.mean_burst_us = config.get_double("arrivals.mean_burst", 2.0) * 1e6;
    arrivals.mean_idle_us = config.get_double("arrivals.mean_idle", 8.0) * 1e6;
    arrivals.pareto_alpha = config.get_double("arrivals.pareto_alpha", 1.5);
    traffic.arrivals = std::move(arrivals);
  }

  // Each fault group validates right after parsing so the error names the
  // key (and line) that introduced it — the scenario fail() contract.
  auto check = [&config](const char* key, const traffic::FaultPlan& plan) {
    try {
      plan.validate();
    } catch (const std::invalid_argument& e) {
      fail(config, key, std::string("is invalid: ") + e.what());
    }
  };
  for (const auto& element : config.get_list("faults.slowdown")) {
    const std::vector<double> w = parse_tuple(config, "faults.slowdown", element, 3);
    traffic.faults.slowdowns.push_back({w[0] * 1e6, w[1] * 1e6, w[2]});
  }
  check("faults.slowdown", {traffic.faults.slowdowns, {}, {}});
  for (const auto& element : config.get_list("faults.flush")) {
    const auto t = util::parse_double(util::trim(element));
    if (!t) fail(config, "faults.flush", "has a non-numeric flush time '" + element + "'");
    traffic.faults.flush_times_us.push_back(*t * 1e6);
  }
  check("faults.flush", {{}, traffic.faults.flush_times_us, {}});
  for (const auto& element : config.get_list("faults.churn")) {
    const std::vector<double> w = parse_tuple(config, "faults.churn", element, 3);
    traffic.faults.churns.push_back({w[0] * 1e6, w[1] * 1e6, w[2]});
  }
  check("faults.churn", {{}, {}, traffic.faults.churns});

  if (traffic.arrivals) {
    try {
      traffic.arrivals->validate();
    } catch (const std::invalid_argument& e) {
      fail(config, "arrivals.rate", std::string("is invalid: ") + e.what());
    }
  }
  return traffic;
}

}  // namespace

const char* to_string(RunMode mode) {
  switch (mode) {
    case RunMode::sharded: return "sharded";
    case RunMode::contended: return "contended";
    case RunMode::replay: return "replay";
  }
  return "?";
}

runner::ModelFactory ModelChoice::factory() const {
  return runner::model_factory_by_name(name, overrides);
}

ScenarioSpec ScenarioSpec::parse(const util::Config& config) {
  ScenarioSpec spec;
  spec.origin = config.origin();

  spec.mode = parse_mode(config);
  spec.name = config.get_string("scenario.name", "unnamed");
  spec.description = config.get_string("scenario.description", "");
  spec.seed = static_cast<std::uint64_t>(config.get_size("scenario.seed", 1991));
  spec.threads = config.get_size("scenario.threads", 0);

  // Mode-scoped keys first: a clearer error than "unknown key".
  for (const auto& [key, mode] : mode_scoped_keys()) {
    if (config.has(key) && spec.mode != mode) {
      fail(config, key,
           std::string("is only meaningful when scenario.mode = ") + to_string(mode) +
               " (this scenario is " + to_string(spec.mode) + ")");
    }
  }

  static const std::set<std::string> known = {
      "scenario.name", "scenario.description", "scenario.mode", "scenario.seed",
      "scenario.threads",
      "workload.users", "workload.sessions", "workload.heavy_fraction", "workload.pattern",
      "workload.markov", "workload.windows", "workload.think_time", "workload.access_size",
      "workload.gds",
      "model.name", "model.names",
      "sharded.shards", "sharded.resume",
      "log.spill", "log.spool_dir", "log.checkpoint",
      "contended.replications", "contended.confidence",
      "replay.trace", "replay.closed_loop", "replay.time_scale", "replay.synthetic_users",
      "arrivals.process", "arrivals.rate", "arrivals.sessions", "arrivals.diurnal",
      "arrivals.flash_at", "arrivals.flash_duration", "arrivals.flash_magnitude",
      "arrivals.burst_ratio", "arrivals.mean_burst", "arrivals.mean_idle",
      "arrivals.pareto_alpha",
      "faults.slowdown", "faults.flush", "faults.churn",
      "obs.metrics", "obs.trace", "obs.trace_events", "obs.progress",
      "output.log", "output.stats",
  };
  config.require_known(known, {"model."});

  // Traffic keys run on both generated-workload paths but are meaningless
  // under replay (a recorded trace fixes its own timeline), so that mode
  // rejects them explicitly rather than via the single-mode scoping table.
  if (spec.mode == RunMode::replay) {
    for (const char* prefix : {"arrivals.", "faults."}) {
      const auto keys = config.keys_with_prefix(prefix);
      if (!keys.empty()) {
        fail(config, keys.front(),
             "is not meaningful under scenario.mode = replay (the trace fixes the "
             "timeline); use a sharded or contended scenario");
      }
    }
  }

  // [workload]
  const std::string users = config.get_string("workload.users", "1");
  try {
    spec.user_points = parse_user_sweep(users);
  } catch (const std::invalid_argument& e) {
    fail(config, "workload.users", std::string("is invalid: ") + e.what());
  }
  if (spec.user_points.size() > 1 && spec.mode != RunMode::contended) {
    fail(config, "workload.users",
         "sweeps (A:B:STEP) require scenario.mode = contended; sharded and replay "
         "scenarios take a single user count");
  }
  spec.sessions = config.get_size("workload.sessions", 50);
  if (spec.sessions == 0) fail(config, "workload.sessions", "expects at least 1 session");
  spec.heavy_fraction = config.get_double("workload.heavy_fraction", 1.0);
  if (spec.heavy_fraction < 0.0 || spec.heavy_fraction > 1.0) {
    fail(config, "workload.heavy_fraction", "expects a fraction in [0, 1]");
  }
  spec.pattern = parse_pattern(config);
  spec.markov = config.get_double("workload.markov", -1.0);
  if (spec.markov >= 1.0) {
    fail(config, "workload.markov", "expects a persistence < 1 (negative = independent)");
  }
  spec.windows = config.get_size("workload.windows", 1);
  if (spec.windows == 0) fail(config, "workload.windows", "expects at least 1 window");
  spec.think_time = config.get_string("workload.think_time", "");
  spec.access_size = config.get_string("workload.access_size", "");
  spec.gds_file = config.get_string("workload.gds", "");
  for (const char* key : {"workload.think_time", "workload.access_size"}) {
    const std::string expr = config.get_string(key, "");
    if (expr.empty()) continue;
    try {
      (void)core::parse_distribution(expr);
    } catch (const std::invalid_argument& e) {
      fail(config, key, std::string("is invalid: ") + e.what());
    }
  }

  spec.models = parse_models(config);

  // [sharded]
  spec.shards = config.get_size("sharded.shards", 1);
  if (spec.mode == RunMode::sharded && spec.shards == 0) {
    fail(config, "sharded.shards", "expects at least 1 shard");
  }

  // [log] — the streaming spill pipeline (docs/SCENARIOS.md "[log]").
  spec.log_spill = config.get_bool("log.spill", false);
  spec.log_spool_dir = config.get_string("log.spool_dir", "");
  if (!spec.log_spool_dir.empty() && !spec.log_spill) {
    fail(config, "log.spool_dir", "is only meaningful with log.spill = true");
  }
  spec.log_checkpoint = config.get_bool("log.checkpoint", false);
  if (spec.log_checkpoint && !spec.log_spill) {
    fail(config, "log.checkpoint",
         "requires log.spill = true (checkpoints persist the spilled runs)");
  }
  spec.resume = config.get_bool("sharded.resume", false);
  if (spec.resume && !spec.log_checkpoint) {
    fail(config, "sharded.resume",
         "requires log.checkpoint = true (there is nothing to resume from without "
         "checkpoints)");
  }
  if (spec.log_spill && spec.log_spool_dir.empty()) {
    spec.log_spool_dir = ".wlgen-spool/" + util::slugify(spec.name);
  }

  // [contended]
  spec.replications = config.get_size("contended.replications", 3);
  if (spec.mode == RunMode::contended && spec.replications == 0) {
    fail(config, "contended.replications", "expects at least 1 replication");
  }
  spec.confidence = config.get_double("contended.confidence", 0.95);

  // [replay]
  spec.trace_file = config.get_string("replay.trace", "");
  if (!spec.trace_file.empty() && config.has("workload.users")) {
    fail(config, "workload.users",
         "conflicts with replay.trace (the trace fixes the recorded population; drop "
         "one)");
  }
  spec.closed_loop = config.get_bool("replay.closed_loop", true);
  spec.time_scale = config.get_double("replay.time_scale", 1.0);
  spec.time_scale_line = config.line_of("replay.time_scale");
  if (spec.time_scale <= 0.0) fail(config, "replay.time_scale", "expects a positive factor");
  spec.synthetic_users = config.get_size("replay.synthetic_users", 0);

  // [arrivals] + [faults].  Default total session count preserves the
  // closed-loop volume: workload.sessions x the (largest) user point.
  spec.traffic = parse_traffic(
      config,
      spec.sessions * *std::max_element(spec.user_points.begin(), spec.user_points.end()));
  if (spec.traffic.arrivals && spec.windows != 1) {
    fail(config, "workload.windows",
         "conflicts with [arrivals] (open-loop sessions queue per user; "
         "windows_per_user must stay 1)");
  }

  // [obs]
  spec.obs_metrics = config.get_string("obs.metrics", "");
  spec.obs_trace = config.get_string("obs.trace", "");
  spec.obs_trace_events = config.get_size("obs.trace_events", 65536);
  if (config.has("obs.trace_events") && spec.obs_trace_events == 0) {
    fail(config, "obs.trace_events", "expects a positive trace-ring budget");
  }
  spec.obs_progress = config.get_bool("obs.progress", false);

  // [output]
  spec.log_file = config.get_string("output.log", "");
  spec.stats_file = config.get_string("output.stats", "");
  if (!spec.log_file.empty() && spec.mode == RunMode::contended) {
    fail(config, "output.log",
         "contended runs collect cross-replication aggregates only (no merged usage "
         "log); use output.stats or a sharded scenario");
  }
  if (!spec.log_file.empty() && spec.models.size() > 1) {
    fail(config, "output.log", "needs a single-model scenario (one log per run)");
  }
  // A sharded run keeps its log exactly when something reads it.
  spec.collect_log = spec.log_spill || !spec.log_file.empty();

  return spec;
}

ScenarioSpec ScenarioSpec::parse_text(const std::string& text, const std::string& origin) {
  return parse(util::Config::parse_text(text, origin));
}

ScenarioSpec ScenarioSpec::parse_file(const std::string& path) {
  return parse(util::Config::parse_file(path));
}

core::Population ScenarioSpec::population() const {
  core::Population population = core::mixed_population(heavy_fraction);
  core::DistributionSpecifier gds;
  if (!gds_file.empty()) gds.load_spec_text(util::read_text_file(gds_file));
  // Inline expressions win over the GDS file.
  if (!think_time.empty()) gds.set("think_time", core::parse_distribution(think_time));
  if (!access_size.empty()) gds.set("access_size", core::parse_distribution(access_size));
  core::apply_gds_overrides(population, gds);
  return population;
}

core::UsimConfig ScenarioSpec::usim_config() const {
  core::UsimConfig config;
  config.sessions_per_user = sessions;
  config.pattern = pattern;
  config.markov_persistence = markov;
  config.windows_per_user = windows;
  return config;
}

std::string ScenarioSpec::summary() const {
  std::ostringstream out;
  out << "scenario: " << name << "\n";
  if (!description.empty()) out << "  " << description << "\n";
  out << "  mode: " << to_string(mode) << "  seed: " << seed << "  threads: "
      << (threads == 0 ? std::string("hardware") : std::to_string(threads)) << "\n";
  out << "  users:";
  for (const std::size_t users : user_points) out << " " << users;
  out << "  sessions/user: " << sessions << "  heavy fraction: " << heavy_fraction
      << "  windows: " << windows << "\n";
  if (!think_time.empty()) out << "  think_time override: " << think_time << "\n";
  if (!access_size.empty()) out << "  access_size override: " << access_size << "\n";
  if (!gds_file.empty()) out << "  gds file: " << gds_file << "\n";
  for (const auto& model : models) {
    out << "  model: " << model.name;
    for (const auto& o : model.overrides) out << "  " << o.key << "=" << o.value;
    out << "\n";
  }
  switch (mode) {
    case RunMode::sharded:
      out << "  sharded: " << shards << " shard(s)\n";
      if (log_spill) {
        out << "  log: spill -> " << log_spool_dir
            << (log_checkpoint ? ", checkpointed" : "") << (resume ? ", resume" : "")
            << "\n";
      }
      break;
    case RunMode::contended:
      out << "  contended: " << replications << " replication(s), confidence " << confidence
          << "\n";
      break;
    case RunMode::replay:
      out << "  replay: " << (trace_file.empty() ? "record synthetically" : trace_file)
          << ", " << (closed_loop ? "closed" : "open") << " loop, time scale " << time_scale;
      if (synthetic_users > 0) out << ", synthetic comparison at " << synthetic_users
                                   << " user(s)";
      out << "\n";
      break;
  }
  if (traffic.arrivals) {
    out << "  arrivals: " << traffic::to_string(traffic.arrivals->kind) << " rate "
        << traffic.arrivals->rate_per_sec << "/s, " << traffic.arrivals->sessions
        << " session(s)";
    if (!traffic.arrivals->profile.constant()) out << ", time-varying";
    out << "\n";
  }
  if (traffic.faults.any()) {
    out << "  faults: " << traffic.faults.slowdowns.size() << " slowdown, "
        << traffic.faults.flush_times_us.size() << " flush, "
        << traffic.faults.churns.size() << " churn\n";
  }
  if (!obs_metrics.empty()) out << "  obs metrics: " << obs_metrics << "\n";
  if (!obs_trace.empty()) {
    out << "  obs trace: " << obs_trace << " (ring " << obs_trace_events << " events)\n";
  }
  if (obs_progress) out << "  obs progress: on\n";
  if (!log_file.empty()) out << "  output log: " << log_file << "\n";
  if (!stats_file.empty()) out << "  output stats: " << stats_file << "\n";
  return out.str();
}

std::vector<std::string> scenario_files(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::invalid_argument("scenario_files: '" + dir + "' is not a directory");
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace wlgen::scenario
