#include "obs/obs.h"

#include "fsmodel/model.h"
#include "util/version.h"

namespace wlgen::obs {

void SimSample::merge(const SimSample& other) {
  sim_events += other.sim_events;
  if (other.heap_high_water > heap_high_water) heap_high_water = other.heap_high_water;
  rng_draws += other.rng_draws;
  sessions += other.sessions;
}

void SimSample::export_into(Registry& registry, const core::OpStats& ops) const {
  registry.add_counter("sim.events", sim_events);
  registry.add_gauge_max("sim.heap_high_water", heap_high_water);
  registry.add_counter("sim.sessions", sessions);
  registry.add_counter("rng.uniform_draws", rng_draws);
  for (std::size_t op = 0; op < core::OpStats::kOps; ++op) {
    const core::OpTypeStats& stats = ops.per_op[op];
    if (stats.response_us.count() == 0) continue;
    const std::string prefix =
        std::string("ops.") + fsmodel::to_string(static_cast<fsmodel::FsOpType>(op));
    registry.add_counter(prefix + ".count", stats.response_us.count());
    registry.add_sum(prefix + ".response_sum_us", stats.response_sum_us);
    registry.add_counter(prefix + ".bytes", stats.bytes);
  }
}

std::size_t ring_share(std::size_t total, std::size_t parts) {
  if (total == 0) return 0;
  if (parts == 0) parts = 1;
  const std::size_t share = total / parts;
  return share == 0 ? 1 : share;
}

void record_op(TraceRing& ring, const core::OpRecord& record) {
  TraceEvent event;
  event.ts_us = record.issue_time_us;
  event.dur_us = record.response_us;
  event.name_id = ring.intern(fsmodel::to_string(record.op));
  event.track = record.user;
  event.user = record.user;
  event.session = record.session;
  ring.push(event);
}

void export_pool(const runner::PoolObs& pool, Registry& registry) {
  registry.add_counter("pool.workers", pool.workers.size(), /*stable=*/false);
  registry.add_counter("pool.jobs", pool.jobs(), /*stable=*/false);
  registry.add_counter("pool.busy_ns", pool.busy_ns(), /*stable=*/false);
  registry.add_counter("pool.idle_ns", pool.idle_ns(), /*stable=*/false);
}

void pool_spans_into(const runner::PoolObs& pool, TraceRing& ring) {
  for (const runner::PoolJobSpan& span : pool.spans) {
    TraceEvent event;
    event.ts_us = span.start_us;
    event.dur_us = span.dur_us;
    event.name_id = ring.intern("job " + std::to_string(span.job));
    event.track = span.worker;
    ring.push(event);
  }
}

util::JsonValue metrics_document(const std::string& label, double wall_ms) {
  const util::BuildInfo& info = util::build_info();
  util::JsonValue build = util::JsonValue::make_object();
  build.set("git_sha", util::JsonValue(info.git_sha));
  build.set("git_dirty", util::JsonValue(info.git_dirty));
  build.set("build_type", util::JsonValue(info.build_type));
  build.set("compiler", util::JsonValue(info.compiler));

  util::JsonValue doc = util::JsonValue::make_object();
  doc.set("schema", util::JsonValue("wlgen-metrics-v1"));
  doc.set("label", util::JsonValue(label));
  doc.set("build", std::move(build));
  doc.set("wall_ms", util::JsonValue(wall_ms));
  doc.set("groups", util::JsonValue::make_array());
  return doc;
}

void add_metrics_group(util::JsonValue& doc, const std::string& label,
                       const Registry& registry) {
  util::JsonValue sections = registry.to_json();
  util::JsonValue group = util::JsonValue::make_object();
  group.set("label", util::JsonValue(label));
  group.set("metrics", sections.at("metrics"));
  group.set("timing", sections.at("timing"));
  // Objects preserve insertion order, so "groups" was created by
  // metrics_document; re-set to push onto the array.
  util::JsonValue groups = doc.at("groups");
  groups.push_back(std::move(group));
  doc.set("groups", std::move(groups));
}

std::vector<TraceGroup> run_trace_groups(const std::string& label, const RunTrace& trace) {
  std::vector<TraceGroup> groups;
  if (trace.ops.size() > 0) {
    TraceGroup group;
    group.label = label + " · sessions & ops";
    group.ring = &trace.ops;
    group.virtual_time = true;
    group.by_session = true;
    groups.push_back(std::move(group));
  }
  if (trace.stages.size() > 0) {
    TraceGroup group;
    group.label = label + " · model stages";
    group.ring = &trace.stages;
    group.virtual_time = true;
    groups.push_back(std::move(group));
  }
  if (trace.pool.size() > 0) {
    TraceGroup group;
    group.label = label + " · pool workers";
    group.ring = &trace.pool;
    group.virtual_time = false;
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace wlgen::obs
