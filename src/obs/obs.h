#pragma once

#include <cstdint>
#include <string>

#include "core/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/pool.h"

namespace wlgen::obs {

/// Observability switches carried by runner configs and scenario specs.
/// Everything defaults off; the runners only take instrumented paths when
/// the corresponding switch is on, so a default config is exactly the
/// pre-obs hot path.
struct ObsConfig {
  std::string metrics_file;  ///< write a metrics JSON report here ("" = off)
  std::string trace_file;    ///< write a Chrome trace JSON here ("" = off)

  /// Total trace-ring budget (events) for the whole run, divided across
  /// shards/jobs and event kinds; the ring keeps the trailing window.
  std::size_t trace_events = 65536;

  bool progress = false;  ///< heartbeat lines on stderr

  /// Collect pool busy/idle accounting (RunnerResult::pool) without paying
  /// for metrics or tracing — what the benches use for utilization columns.
  bool pool = false;

  std::string label;  ///< run label for reports/heartbeats ("" = derived)

  bool metrics() const { return !metrics_file.empty(); }
  bool trace() const { return !trace_file.empty(); }

  /// True when per-op/per-shard samples must be collected at all.
  bool collect() const { return metrics() || trace(); }

  /// True when anything observability-related is on.
  bool any() const { return collect() || progress || pool; }
};

/// Per-entity (user or replication) observability sample: the counters a
/// universe reports beside its records.  Folds in the same fixed entity
/// order as RunnerStats, whose per-op fold supplies the "ops.*" family.
struct SimSample {
  std::uint64_t sim_events = 0;
  /// Max concurrently-pending events.  An open-loop replay issues its
  /// records through Simulation::fire_at, never queueing them, so there it
  /// is the peak of in-flight events, not the trace length.
  std::uint64_t heap_high_water = 0;
  std::uint64_t rng_draws = 0;        ///< uniform01-path draws
  std::uint64_t sessions = 0;

  void merge(const SimSample& other);

  /// Emits "sim.events", "sim.heap_high_water", "sim.sessions",
  /// "rng.uniform_draws", then "ops.<op>.count|response_sum_us|bytes" for
  /// every op type that occurred in `ops`, the run's per-op fold (all
  /// stable).
  void export_into(Registry& registry, const core::OpStats& ops) const;
};

/// The three trace tracks a run produces; each serializes as one Chrome
/// "process" (see trace.h).
struct RunTrace {
  TraceRing ops;     ///< file ops on virtual-time user tracks (+ sessions)
  TraceRing stages;  ///< model stages on virtual-time resource tracks
  TraceRing pool;    ///< pool jobs on wall-time worker tracks

  bool enabled() const { return ops.capacity() + stages.capacity() + pool.capacity() > 0; }
};

/// Per-part slice of a total ring budget: total/parts, at least 1 when the
/// total is non-zero.  Fixed integer division — independent of scheduling.
std::size_t ring_share(std::size_t total, std::size_t parts);

/// Records one completed file op as a duration event on the owning user's
/// virtual-time track.
void record_op(TraceRing& ring, const core::OpRecord& record);

/// Folds pool accounting into the registry as *unstable* (wall-clock)
/// metrics: pool.workers, pool.jobs, pool.busy_ns, pool.idle_ns.
void export_pool(const runner::PoolObs& pool, Registry& registry);

/// Converts recorded job spans into wall-time trace events ("job <i>" on
/// "worker <w>" tracks).
void pool_spans_into(const runner::PoolObs& pool, TraceRing& ring);

/// Starts a metrics report document: schema tag, label, build provenance
/// (util::build_info()), wall_ms, and an empty "groups" array.
util::JsonValue metrics_document(const std::string& label, double wall_ms);

/// Appends one {"label", "metrics", "timing"} group to the document.
void add_metrics_group(util::JsonValue& doc, const std::string& label,
                       const Registry& registry);

/// Standard trace groups of one labelled run (skipping empty rings).
std::vector<TraceGroup> run_trace_groups(const std::string& label, const RunTrace& trace);

}  // namespace wlgen::obs
