#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/usage_log.h"
#include "fsmodel/model.h"
#include "sim/simulation.h"

namespace wlgen::core {

class LogReader;

/// Trace-driven workload replay — the related-work alternative the paper
/// positions itself against (section 2.1: "trace data reproduces the actual
/// workload, but provides an inflexible description").
///
/// Re-measures every recorded response against a (possibly different)
/// file-system model, handing each re-measured record to a callback.  The
/// trace is a loaded UsageLog, walked in place (no copy), or a LogReader,
/// read as the replay goes.  Two modes:
///
/// * **open loop** (preserve_timing): ops are issued at their recorded
///   timestamps regardless of how the new system responds — how trace
///   replay is usually done, and where its inflexibility bites (the trace
///   cannot react to a slower system, nor represent more users than it
///   recorded).  Records are issued in time order through
///   Simulation::fire_at, so the event heap holds only the in-flight ops,
///   never the future issues, and `sim.heap_high_water` reports that
///   in-flight peak.  Each record is handed on at its completion, so
///   nothing of the replayed log is held.  A loaded trace whose issue times
///   go backwards (a raw USIM log is in completion order) is walked through
///   a stable sort of its indices, which keeps input order on timestamp
///   ties — exactly the FIFO order the issues would have had as queued
///   events.  A streamed trace is issued as it is read, so it can replay
///   only while its issue times never go backwards; run() reports the first
///   step back, and the caller replays the trace loaded instead.
/// * **closed loop**: each simulated user issues its next op only after the
///   previous one completes plus the recorded think gap, approximating the
///   original feedback behaviour.  A streamed trace is loaded first; the
///   replayed records are handed on after the run, sorted by (issue time,
///   user).
class TraceReplayer {
 public:
  struct Options {
    bool preserve_timing = true;  ///< open loop (timestamps) vs closed loop
    double time_scale = 1.0;      ///< stretch (>1) or compress (<1) the trace clock
  };

  /// Receives the replayed records, in the order run() describes.
  using OnReplayed = std::function<void(const OpRecord&)>;

  /// Replays `trace` (non-owning; must outlive run()).
  TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model, const UsageLog& trace);

  /// Replays the records `trace` yields (non-owning; must outlive run()).
  TraceReplayer(sim::Simulation& sim, fsmodel::FileSystemModel& model, LogReader& trace);

  /// Replays the whole trace with the same ops but responses re-measured on
  /// `model`, handing each record to `on_replayed`: in open loop as its op
  /// completes, in closed loop after the run in (issue time, user) order.
  /// Returns false only for an open-loop stream whose scaled issue times go
  /// backwards: it stops at that record, with the ops before it issued and
  /// some of them handed on, so the simulation, the model and whatever
  /// `on_replayed` folded must all be discarded.  Throws
  /// std::invalid_argument on a time_scale that is not > 0 or that
  /// stretches the trace's issue-time span past 2^53 µs (a stream's span as
  /// far as it has been read, so after part of the replay).  May be called
  /// once.
  bool run(const Options& options, const OnReplayed& on_replayed);

  /// run() handing every record to a log it returns.  Throws
  /// std::logic_error where run() would return false.
  UsageLog run();
  UsageLog run(const Options& options);

  std::uint64_t ops_replayed() const { return ops_replayed_; }

 private:
  struct UserWalk;

  void replay_loaded(const UsageLog& trace, const Options& options);
  bool stream_open_loop(LogReader& trace, double scale);
  void run_open_loop(const UsageLog& trace, double scale);
  void run_closed_loop(const UsageLog& trace, double scale);

  /// Issues `record` now (open loop); its completion hands on the
  /// re-measured copy.
  void issue(const OpRecord& record);

  sim::Simulation& sim_;
  fsmodel::FileSystemModel& model_;
  const UsageLog* loaded_ = nullptr;
  LogReader* stream_ = nullptr;
  const OnReplayed* on_replayed_ = nullptr;
  std::vector<OpRecord> closed_;  ///< closed loop's records, in completion order
  std::uint64_t ops_replayed_ = 0;
  bool ran_ = false;
};

}  // namespace wlgen::core
