#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/log_sink.h"
#include "obs/obs.h"
#include "runner/partition.h"
#include "runner/stats.h"
#include "runner/universe.h"
#include "sim/simulation.h"
#include "stats/sketch.h"

namespace wlgen::runner {

/// Streaming-log spill configuration (DESIGN.md "Streaming log pipeline").
/// Every log-collecting shard cuts its records into sorted runs through a
/// core::SpillSink; off by default, the runs stay in memory.  With
/// `enabled`, they are written as run files under `spool_dir` instead —
/// the same merged (issue_time, user) stream through the same k-way merge
/// reader (core::open_spilled_log over RunnerResult::log_runs), with RSS
/// bounded by the buffers rather than the log.
struct SpillConfig {
  bool enabled = false;

  /// Run/checkpoint directory (required when enabled; created if missing).
  std::string spool_dir;

  /// Per-shard records buffered before a run is cut.  Runs only split at
  /// user boundaries, so a single user may exceed this; purely a memory/
  /// fan-in trade-off — never affects the merged stream.
  std::size_t buffer_records = 65536;

  /// Persist a per-shard checkpoint (spool_dir/shardNNNNNN.ckpt) when the
  /// shard completes, so an interrupted run can resume (requires enabled).
  bool checkpoint = false;

  /// Skip shards that left a valid checkpoint: their sorted runs are
  /// re-read to reconstruct the per-user statistics in the exact original
  /// fold order, so a resumed run's digest is bit-identical to an
  /// uninterrupted one (requires checkpoint).
  bool resume = false;

  /// Caller-level identity folded into the checkpoint fingerprint (the
  /// scenario/CLI description of everything the runner config cannot see —
  /// model, overrides, workload knobs).  Resume refuses a mismatch.
  std::string config_tag;
};

/// Configuration of a sharded run: the workload (WorkloadConfig, resolved by
/// the constructor) plus the sharded runner's own fields.  The arrival
/// timeline is generated once per run from `seed` and dealt to users by
/// global index, and faults are installed identically in every user
/// universe — both pure functions of the config, so the shard/thread
/// invariance contract holds with traffic on.  Every own field has a
/// default member initializer, so `RunnerConfig{workload}` builds a
/// complete config.
struct RunnerConfig : WorkloadConfig {
  /// Total simulated users (the global index space [0, num_users)).
  std::size_t num_users = 1;

  /// K: number of independent Simulation shards the user space is cut into
  /// by partition_users().  Results are bit-identical for every K >= 1.
  std::size_t shards = 1;

  /// Worker threads executing the shards (0 = min(shards, hardware
  /// concurrency)).  Purely an execution knob; never affects results.
  std::size_t threads = 0;

  /// Geometry of the merged response-time histogram.  Every user holds one
  /// private histogram during the run (the per-user slots are what make the
  /// merge fold K-invariant), so the transient footprint is ~8 bytes x bins
  /// per user — shrink bins for multi-million-user sweeps.
  HistogramSpec histogram{};

  /// Retain the per-op usage log as sorted runs.  With `spill.enabled` the
  /// runs go to disk instead of RAM, so even million-user runs can keep
  /// this on; collect_log = false keeps no log at all (every statistic
  /// comes from the per-user fold) and conflicts with spilling.
  bool collect_log = true;

  /// Disk-spill / checkpoint-resume switches (off = runs in memory).
  SpillConfig spill{};

  /// Observability switches (all off by default — the default run takes
  /// exactly the uninstrumented hot path).
  obs::ObsConfig obs{};
};

/// Merged outcome of a sharded run.
struct RunnerResult {
  /// The usage log as sorted runs in shard order: run files when the run
  /// spilled, memory runs otherwise, none when collect_log is off.
  /// core::open_spilled_log(log_runs) streams it merged by (issue time,
  /// user index), bit-identical for every (shards, threads, spill) choice.
  std::vector<core::SpillRun> log_runs;

  /// Bounded-memory response-time quantile sketch (always on): one sketch
  /// per shard during the run, folded exactly — integer bucket counts make
  /// the merge order-invariant, so it is bit-identical for every
  /// (shards, threads) choice without per-user slots.
  stats::QuantileSketch response_sketch;

  std::size_t shards_resumed = 0;       ///< shards restored from checkpoints
  std::size_t checkpoints_written = 0;  ///< checkpoints persisted this run

  /// Mergeable aggregates, folded in ascending global-user order.
  RunnerStats stats;

  std::uint64_t total_ops = 0;
  std::uint64_t sessions_completed = 0;

  /// Sessions with at least one record: the analyzer's session count of the
  /// merged log (sessions_completed also counts logins that planned no work).
  std::uint64_t sessions_logged = 0;

  /// Merged observability outputs (empty/zero-capacity when obs is off).
  /// The stable metrics fold per-user in ascending user order, so they are
  /// bit-identical for every (shards, threads) choice — same contract as
  /// `stats`.
  obs::Registry registry;
  obs::RunTrace trace;
  PoolObs pool;
};

/// Shard-parallel simulation runner — the scale-out path to the ROADMAP's
/// "millions of simulated users" (architecture in DESIGN.md, "Sharded
/// runner").
///
/// Semantics: every user is an *independent universe* — a private
/// SimulatedFileSystem built by the FSC range path for exactly that user, a
/// private FileSystemModel, and a timeline starting at simulated time 0.
/// This is the regime the per-user RNG streams already guarantee for user
/// behaviour; the runner extends it to the whole environment, which is what
/// makes the merged result a pure per-user function: independent of shard
/// count, thread count, and scheduling.  Shared-machine contention studies
/// (the Figures 5.6–5.11 response-vs-users curves) run on ContendedRunner,
/// where all users of a load point share one universe.
///
/// Execution: partition_users() cuts [0, num_users) into K contiguous
/// ranges; a pool of worker threads drains the shards, each worker reusing
/// one warm Simulation (clock/arena reset per user) and cutting its shard's
/// records into sorted runs on the way.  Aggregates follow the RunnerStats
/// contract — a fixed ascending-user fold, so every aggregate, including
/// floating-point reductions, is bit-identical regardless of K — and the
/// log follows merge_user_logs()' order, which the k-way merge over the
/// runs reproduces for any K.
class ShardedRunner {
 public:
  explicit ShardedRunner(RunnerConfig config);

  /// Executes the run.  May be called once.
  RunnerResult run();

 private:
  struct UserOutcome;

  /// Runs one user's universe (run_universe) on the worker's Simulation.
  /// `sample` (when collecting metrics) takes the universe's counters and
  /// `op_ring` (when tracing) the shard's op spans; null means off.
  /// `sink` (when collecting the log) is the owning shard's run sink;
  /// `sketch` is its quantile sketch (always set on sharded runs).
  void run_user(sim::Simulation& sim, std::size_t user, UserOutcome& out,
                obs::SimSample* sample, obs::TraceRing* op_ring, core::LogSink* sink,
                stats::QuantileSketch* sketch) const;

  /// Configuration identity folded into checkpoint fingerprints: the runner
  /// knobs that determine every user's record stream, plus the caller's
  /// spill.config_tag for everything above this layer.
  std::string fingerprint() const;

  RunnerConfig config_;

  /// Per-global-user session arrival lists (set once in run() before the
  /// worker pool starts; workers only read it).  Null in closed-loop runs.
  std::shared_ptr<const std::vector<std::vector<double>>> arrivals_;

  bool ran_ = false;
};

}  // namespace wlgen::runner
