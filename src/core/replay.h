#pragma once

#include <cstdint>

#include "core/usage_log.h"
#include "fsmodel/model.h"
#include "sim/simulation.h"

namespace wlgen::core {

/// Trace-driven workload replay — the related-work alternative the paper
/// positions itself against (section 2.1: "trace data reproduces the actual
/// workload, but provides an inflexible description").
///
/// Walks the recorded trace in place (no copy) and re-measures every
/// response against a (possibly different) file-system model.  Two modes:
///
/// * **open loop** (preserve_timing): ops are issued at their recorded
///   timestamps regardless of how the new system responds — how trace
///   replay is usually done, and where its inflexibility bites (the trace
///   cannot react to a slower system, nor represent more users than it
///   recorded).  Records are issued in time order through
///   Simulation::fire_at, so the event heap holds only the in-flight ops,
///   never the future issues, and `sim.heap_high_water` reports that
///   in-flight peak.  A trace whose issue times go backwards (a raw USIM
///   log is in completion order) is walked through a stable sort of its
///   indices, which keeps input order on timestamp ties — exactly the FIFO
///   order the issues would have had as queued events.
/// * **closed loop**: each simulated user issues its next op only after the
///   previous one completes plus the recorded think gap, approximating the
///   original feedback behaviour.
class TraceReplayer {
 public:
  struct Options {
    bool preserve_timing = true;  ///< open loop (timestamps) vs closed loop
    double time_scale = 1.0;      ///< stretch (>1) or compress (<1) the trace clock
  };

  /// Replays `trace` (non-owning; must outlive run()).
  TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model, const UsageLog& trace);

  /// Replays the whole trace; returns a log with the same ops but response
  /// times re-measured on `model`.  May be called once.
  UsageLog run();
  UsageLog run(const Options& options);

  std::uint64_t ops_replayed() const { return ops_replayed_; }

 private:
  struct UserWalk;

  void run_open_loop(double scale);
  void run_closed_loop(double scale);

  /// Issues `record` now; its completion appends the re-measured record
  /// and, in closed loop, steps `walk` to the user's next op.
  void issue(const OpRecord& record, UserWalk* walk);

  sim::Simulation& sim_;
  fsmodel::FileSystemModel& model_;
  const UsageLog& trace_;
  UsageLog replayed_;
  std::uint64_t ops_replayed_ = 0;
  bool ran_ = false;
};

}  // namespace wlgen::core
