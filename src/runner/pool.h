#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace wlgen::runner {

/// Executes one job index.  The `cancelled` flag flips when another worker
/// has thrown; long-running jobs should poll it at natural checkpoints
/// (ShardedRunner checks between users) and return early.
using PoolJob = std::function<void(std::size_t index, const std::atomic<bool>& cancelled)>;

/// Invoked once per worker thread before it starts draining jobs; returns
/// that worker's job function.  Worker-local state (a warm sim::Simulation,
/// scratch buffers) lives in the returned closure, so it is built once per
/// thread instead of once per job.
using PoolWorkerFactory = std::function<PoolJob()>;

/// Resolves a thread-count request: 0 means hardware concurrency, and the
/// result is clamped to [1, jobs].
std::size_t resolve_pool_threads(std::size_t requested, std::size_t jobs);

/// Drains jobs 0..count-1 over up to `threads` worker threads (0 = hardware
/// concurrency).  Jobs are claimed from a shared atomic counter, so ordering
/// is nondeterministic — results must be written to per-index slots and
/// folded by the caller in a fixed order (the ShardedRunner merge contract).
/// The first exception cancels the remaining jobs and is rethrown on the
/// calling thread after every worker has joined.  `threads == 1` (or a
/// single job) runs inline with no thread spawned.
///
/// Per-worker utilization accounting: how many jobs the worker executed and
/// how its wall time split between running jobs (busy) and waiting for work
/// or sitting behind slower peers (idle).  This is what makes a flat scaling
/// curve self-diagnosing: saturated workers show busy ≈ wall, a starved pool
/// shows idle dominating.
struct PoolWorkerStat {
  std::uint64_t jobs = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
};

/// One job's wall-clock span (for trace timelines), relative to drain_pool
/// entry.
struct PoolJobSpan {
  std::uint32_t job = 0;
  std::uint32_t worker = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Optional drain_pool observation.  When passed, the pool records one
/// PoolWorkerStat per worker and — when record_spans is set — a PoolJobSpan
/// per job.  Costs two steady_clock reads per job; a null PoolObs* keeps the
/// pool entirely clock-free.  Wall-clock numbers are scheduling-dependent by
/// nature: reporting only, never folded into results.
struct PoolObs {
  bool record_spans = false;           ///< in: also record per-job spans
  std::vector<PoolWorkerStat> workers; ///< out: one entry per worker
  std::vector<PoolJobSpan> spans;      ///< out: per-job spans, worker-major order

  std::uint64_t jobs() const;
  std::uint64_t busy_ns() const;
  std::uint64_t idle_ns() const;
};

/// This is the worker pool behind both runner::ShardedRunner (shards as
/// jobs) and exp::run_experiments (experiments as jobs).  `obs`, when
/// non-null, receives per-worker utilization (and job spans); results are
/// unaffected either way.
void drain_pool(std::size_t count, std::size_t threads, const PoolWorkerFactory& make_worker,
                PoolObs* obs = nullptr);

}  // namespace wlgen::runner
