#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/pool.h"

namespace wlgen::sim {

struct ChainState;  // sim/chain_state.h
struct LongPlan;    // sim/chain_state.h

/// Simulated time in microseconds.  The paper reports every latency in
/// microseconds (Table 5.3, Figures 5.6–5.12), so the kernel adopts the same
/// unit.
using SimTime = double;

/// Discrete-event simulation kernel.
///
/// This replaces the wall clock of the paper's SUN 3/50 testbed: the USIM
/// "measures the response time of each file I/O system call by getting the
/// difference of before and after calling a system call" (section 5.1); here
/// the difference is taken on the simulated clock, which makes every
/// experiment deterministic and hardware-independent.
///
/// Events scheduled for the same instant fire in scheduling order (stable
/// FIFO tie-break), which the tests rely on.
///
/// Engineering (see DESIGN.md "Event core"): the pending set is an intrusive
/// 4-ary min-heap over a pooled arena of EventFn callbacks, stored SoA — a
/// hot (when, seq) key array the sifts compare against and a parallel
/// payload array of arena slots that only moves alongside it.  Sifts touch
/// ~2/3 of the bytes the former 24-byte AoS entries cost per level, which
/// is what the comparison-heavy sift_down path is bound by once the heap
/// outgrows L1.  Scheduling an event with a capture of up to
/// EventFn::kInlineCapacity bytes performs zero heap allocations once the
/// arena is warm — the std::function-per-event design this replaces paid one
/// malloc/free pair per simulated system call.  The states of executing
/// stage chains (sim/stages.h), and the plans of more than two stages, come
/// from free lists the Simulation owns, and a resource queues the chain
/// states themselves, so a whole simulated call — plan, queueing, service,
/// completion — runs without allocating once the pools are warm.
class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (microseconds since simulation start).
  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` microseconds from now (delay >= 0).
  /// Accepts any void() callable; captures <= EventFn::kInlineCapacity bytes
  /// are stored inline (no allocation).
  void schedule(SimTime delay, EventFn action);

  /// Schedules `action` at absolute time `when` (>= now()).
  void schedule_at(SimTime when, EventFn action);

  /// Runs until the event queue drains.  `max_events` guards against
  /// runaway self-scheduling loops (0 = unlimited).
  void run(std::size_t max_events = 0);

  /// Runs events with timestamp <= t, then sets now() = t — also when the
  /// queue is already empty, so idle periods still advance the clock.
  void run_until(SimTime t);

  /// Runs `action` as an event at time t (>= now()) without queueing it:
  /// dispatches every pending event strictly before t, sets now() = t,
  /// counts one processed event and calls `action` inline.  That is
  /// exactly where the event would have run had it been scheduled before
  /// everything now pending — its earlier seq puts it ahead of the events
  /// already queued at t.  Open-loop trace replay issues its records this
  /// way, in time order, so the heap holds only in-flight work instead of
  /// every future issue.
  template <typename F>
  void fire_at(SimTime t, F&& action) {
    run_before(t);
    ++processed_;
    std::forward<F>(action)();
  }

  /// Rewinds the clock to 0 and discards any pending events, keeping the
  /// arena and heap storage warm.  This is the shard-runner reuse path (see
  /// DESIGN.md "Sharded runner"): one worker simulates many independent
  /// user timelines back to back on the same Simulation without paying the
  /// arena's allocation ramp-up again.  A Resource that had chains waiting
  /// or in service must not serve again: it still counts them, and they are
  /// gone.  The runners build a new backend for each timeline.
  void reset();

  /// Number of events executed so far.
  std::uint64_t events_processed() const { return processed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return heap_keys_.size(); }

  /// High-water mark of concurrently-pending events since the last reset().
  /// The arena only grows a slot when every existing slot is live, so its
  /// size IS the maximum simultaneous event count — a pure accessor, no
  /// hot-path bookkeeping.  reset() clears the slots (keeping capacity), so
  /// on the shard runner's reuse path this reports the current user's own
  /// peak, deterministic per user.
  std::size_t arena_high_water() const { return slots_.size(); }

  /// Chain-state and long-plan free lists for execute_chain (sim/stages.h)
  /// — their only user.  acquire reuses a released object or grows the
  /// pool by a block; release hands a finished one back (a state's
  /// completion already moved out).  reset() reclaims the states and plans
  /// of chains still in flight; the destructor frees them all.
  ChainState& acquire_chain();
  void release_chain(ChainState& state);
  LongPlan& acquire_plan();
  void release_plan(LongPlan& plan);

 private:
  /// Hot half of a heap entry: everything the sift comparisons read.  The
  /// arena slot rides in the parallel heap_slots_ array (the callback
  /// itself never moves — it stays put in its arena slot until dispatch).
  struct HeapKey {
    SimTime when;
    std::uint64_t seq;
  };

  static bool before(const HeapKey& a, const HeapKey& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Pops the earliest event and runs it (advancing now_ and processed_).
  void dispatch_top();

  /// Dispatches every event strictly before t, then sets now_ = t.
  void run_before(SimTime t);

  std::vector<HeapKey> heap_keys_;       ///< 4-ary min-heap, key half (SoA)
  std::vector<std::uint32_t> heap_slots_;  ///< payload half, parallel to heap_keys_
  std::vector<EventFn> slots_;           ///< pooled callback arena
  std::vector<std::uint32_t> free_slots_;
  Pool<ChainState> chains_;  ///< execute_chain's states, live or free
  Pool<LongPlan> plans_;     ///< plans of more than two stages, live or free
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace wlgen::sim
