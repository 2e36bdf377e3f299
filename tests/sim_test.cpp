// Unit tests for src/sim: event ordering, clock semantics, FCFS resources
// with utilisation accounting, and stage-chain execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stages.h"

// Global allocation counter: lets the event-core tests assert that the
// arena + small-buffer-callback design really schedules without touching
// the heap (DESIGN.md "Event core").  The operators below intentionally
// pair std::malloc with std::free; GCC's -Wmismatched-new-delete cannot see
// through the override.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates via ::operator new(n, std::nothrow) and frees via the
// sized ::operator delete above — replacing only the throwing forms pairs
// the library default's allocation with this file's std::free (caught by
// ASan as an alloc-dealloc mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wlgen::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30.0, [&] { order.push_back(3); });
  sim.schedule(10.0, [&] { order.push_back(1); });
  sim.schedule(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
  Simulation sim;
  double inner_time = -1.0;
  sim.schedule(10.0, [&] {
    sim.schedule(5.0, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 15.0);
}

TEST(Simulation, RejectsInvalidScheduling) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(1.0, nullptr), std::invalid_argument);
  // An empty std::function must be rejected at schedule time, not crash
  // with bad_function_call at dispatch time.
  std::function<void()> empty_fn;
  EXPECT_THROW(sim.schedule(1.0, empty_fn), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10.0, [&] { ++fired; });
  sim.schedule(20.0, [&] { ++fired; });
  sim.run_until(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// Regression: run_until must advance the clock even when nothing is
// pending — callers use it to model idle wall-clock periods.
TEST(Simulation, RunUntilOnEmptyQueueStillAdvancesClock) {
  Simulation sim;
  sim.run_until(25.0);
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  sim.run_until(25.0);  // idempotent at the boundary
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
  sim.run_until(40.0);
  EXPECT_DOUBLE_EQ(sim.now(), 40.0);
  EXPECT_THROW(sim.run_until(10.0), std::invalid_argument);
}

// fire_at runs an action as if it had been queued ahead of everything now
// pending: events strictly before t first, then the action (ahead of events
// already pending at t), counted as one processed event.
TEST(Simulation, FireAtRunsInlineAheadOfEventsPendingAtItsTime) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(5); });
  sim.schedule_at(10.0, [&] { order.push_back(10); });
  sim.schedule_at(15.0, [&] { order.push_back(15); });
  double seen_now = -1.0;
  sim.fire_at(10.0, [&] {
    seen_now = sim.now();
    order.push_back(0);
    sim.schedule(0.0, [&] { order.push_back(1); });  // queued behind the pending t=10 event
  });
  EXPECT_DOUBLE_EQ(seen_now, 10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(order, (std::vector<int>{5, 0}));
  EXPECT_EQ(sim.events_processed(), 2u);  // the t=5 event and the fired action
  sim.fire_at(10.0, [&] { order.push_back(2); });  // a tie fires in call order
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 0, 2, 10, 1, 15}));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_THROW(sim.fire_at(14.0, [] {}), std::invalid_argument);
}

// fire_at is the same timeline as queueing every action up front: the
// dispatch order and the processed-event count match schedule_at + run.
TEST(Simulation, FireAtMatchesQueueingEverythingUpFront) {
  std::mt19937 gen(7);
  std::uniform_int_distribution<int> coarse_time(0, 40);
  std::vector<double> times(300);
  for (double& t : times) t = static_cast<double>(coarse_time(gen));
  std::sort(times.begin(), times.end());

  auto drive = [&times](bool fire) {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < static_cast<int>(times.size()); ++i) {
      auto action = [&sim, &order, i] {
        order.push_back(i);
        sim.schedule(static_cast<double>(i % 3), [&order, i] { order.push_back(1000 + i); });
      };
      if (fire) {
        sim.fire_at(times[static_cast<std::size_t>(i)], action);
      } else {
        sim.schedule_at(times[static_cast<std::size_t>(i)], action);
      }
    }
    sim.run();
    return std::make_pair(order, sim.events_processed());
  };
  EXPECT_EQ(drive(true), drive(false));
}

// reset() rewinds the clock and discards pending work: the sharded runner
// reuses one Simulation per worker across many independent user timelines.
TEST(Simulation, ResetRewindsClockAndDropsPendingEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(6.0);
  EXPECT_EQ(fired, 1);
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
  sim.run();              // nothing pending: a no-op
  EXPECT_EQ(fired, 1);    // the discarded 10.0 event never fires

  // A fresh timeline on the recycled arena behaves like a new Simulation,
  // FIFO tie-break included.
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// Property test of the SoA pending set: for a randomized schedule with many
// deliberate timestamp collisions, dispatch order must equal a stable sort
// of the requests by time — stability being exactly the FIFO tie-break.
// Guards the parallel key/payload arrays against drifting out of sync in
// any sift path.
TEST(Simulation, RandomizedScheduleDispatchesInStableSortedOrder) {
  std::mt19937 gen(20260807);
  // Few distinct times over many events forces long runs of ties.
  std::uniform_int_distribution<int> coarse_time(0, 19);
  Simulation sim;
  std::vector<int> order;
  std::vector<std::pair<double, int>> requests;  // (when, id), scheduling order
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    const double when = static_cast<double>(coarse_time(gen));
    requests.emplace_back(when, i);
    sim.schedule_at(when, [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(order.size(), requests.size());
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], requests[static_cast<std::size_t>(i)].second)
        << "dispatch position " << i;
  }
}

// reset() between two identical randomized timelines: the warm arena and
// recycled heap storage must replay the second timeline identically to the
// first (the sharded runner's per-worker reuse contract, at scale).
TEST(Simulation, ResetReplaysIdenticalTimelineOnWarmStorage) {
  Simulation sim;
  std::vector<int> first_run;
  std::vector<int> second_run;
  auto drive = [&sim](std::vector<int>& order) {
    std::mt19937 gen(99);
    std::uniform_int_distribution<int> coarse_time(0, 9);
    for (int i = 0; i < 500; ++i) {
      sim.schedule_at(static_cast<double>(coarse_time(gen)), [&order, i] { order.push_back(i); });
    }
    sim.run();
  };
  drive(first_run);
  sim.reset();
  EXPECT_EQ(sim.pending(), 0u);
  drive(second_run);
  EXPECT_EQ(first_run, second_run);
}

// Regression: the FIFO tie-break must survive heap restructuring — ties
// scheduled from inside other events (exercising sift-up/sift-down paths)
// still fire in scheduling order.
TEST(Simulation, FifoTieBreakSurvivesInterleavedScheduling) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(static_cast<double>(i % 5), [&sim, &order, i] {
      sim.schedule_at(100.0, [&order, i] { order.push_back(i); });
    });
  }
  sim.run();
  // Outer events fire grouped by time (i%5), FIFO within a group; the inner
  // ties at t=100 must replay exactly that scheduling order.
  std::vector<int> expected;
  for (int r = 0; r < 5; ++r) {
    for (int i = r; i < 50; i += 5) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

// The point of the event-pool + small-buffer-callback design: once the
// arena is warm, scheduling and running events with small captures performs
// zero heap allocations.
TEST(Simulation, SmallCaptureEventsAllocateNothingAfterWarmup) {
  Simulation sim;
  const int n = 1000;
  int fired = 0;
  for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [&fired] { ++fired; });
  sim.run();  // warm-up grows the heap/arena vectors to steady state
  ASSERT_EQ(fired, n);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [&fired] { ++fired; });
  sim.run();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(fired, 2 * n);
}

// Captures above EventFn::kInlineCapacity take the heap fallback but must
// behave identically.
TEST(Simulation, LargeCaptureEventsStillRunCorrectly) {
  Simulation sim;
  struct Big {
    double payload[16];  // 128 bytes, well past the inline buffer
  };
  Big big{};
  big.payload[0] = 1.0;
  big.payload[15] = 2.0;
  double seen = 0.0;
  sim.schedule(1.0, [big, &seen] { seen = big.payload[0] + big.payload[15]; });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(Simulation, EventBudgetGuardsLivelock) {
  Simulation sim;
  std::function<void()> loop = [&] { sim.schedule(0.0, loop); };
  sim.schedule(0.0, loop);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

// The Resource tests drive the resource through one-stage chains, the way
// every model uses it.
void use_at(Simulation& sim, Resource& resource, SimTime service_time, ChainDone done) {
  execute_chain(sim, {Stage::make_use(resource, service_time)}, std::move(done));
}

TEST(Resource, SingleServerSerializesRequests) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<double> completions;
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) {
      use_at(sim, disk, 10.0, [&](SimTime) { completions.push_back(sim.now()); });
    }
  });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 10.0);
  EXPECT_DOUBLE_EQ(completions[1], 20.0);
  EXPECT_DOUBLE_EQ(completions[2], 30.0);
  EXPECT_EQ(disk.completed(), 3u);
}

TEST(Resource, MultiServerRunsInParallel) {
  Simulation sim;
  Resource cpu(sim, "cpu", 2);
  std::vector<double> completions;
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      use_at(sim, cpu, 10.0, [&](SimTime) { completions.push_back(sim.now()); });
    }
  });
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[0], 10.0);
  EXPECT_DOUBLE_EQ(completions[1], 10.0);
  EXPECT_DOUBLE_EQ(completions[2], 20.0);
  EXPECT_DOUBLE_EQ(completions[3], 20.0);
}

TEST(Resource, FcfsOrderPreserved) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(static_cast<double>(i), [&, i] {
      use_at(sim, disk, 5.0, [&order, i](SimTime) { order.push_back(i); });
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, UtilizationFullWhenSaturated) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 10; ++i) use_at(sim, disk, 10.0, [](SimTime) {});
  });
  sim.run();
  EXPECT_NEAR(disk.utilization(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 100.0);
}

TEST(Resource, UtilizationHalfWhenIdleHalfTheTime) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] { use_at(sim, disk, 10.0, [](SimTime) {}); });
  sim.schedule(20.0, [&] { use_at(sim, disk, 10.0, [](SimTime) {}); });
  sim.run();  // busy [0,10] and [20,30] over elapsed 30
  EXPECT_NEAR(disk.utilization(), 20.0 / 30.0, 1e-9);
}

TEST(Resource, MeanQueueLengthAccounting) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] {
    use_at(sim, disk, 10.0, [](SimTime) {});
    use_at(sim, disk, 10.0, [](SimTime) {});  // waits [0,10]
  });
  sim.run();  // queue length 1 for 10 of 20 elapsed
  EXPECT_NEAR(disk.mean_queue_length(), 0.5, 1e-9);
}

TEST(Resource, ResetStatsClearsCounters) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] { use_at(sim, disk, 10.0, [](SimTime) {}); });
  sim.run();
  disk.reset_stats();
  EXPECT_EQ(disk.completed(), 0u);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 0.0);
}

TEST(Resource, RejectsInvalidUse) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  EXPECT_THROW(Stage::make_use(disk, -1.0), std::invalid_argument);
  EXPECT_THROW(use_at(sim, disk, 1.0, nullptr), std::invalid_argument);
  EXPECT_EQ(disk.queue_length() + disk.in_service(), 0u);  // nothing was queued
  EXPECT_THROW(Resource(sim, "bad", 0), std::invalid_argument);
}

TEST(Stages, DelayChainAccumulates) {
  Simulation sim;
  double elapsed = -1.0;
  StageChain chain = {Stage::make_delay(5.0), Stage::make_delay(7.0)};
  EXPECT_DOUBLE_EQ(chain_service_demand(chain), 12.0);
  execute_chain(sim, chain, [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 12.0);
}

TEST(Stages, UseStageIncludesQueueing) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<double> elapsed;
  sim.schedule(0.0, [&] {
    execute_chain(sim, {Stage::make_use(disk, 10.0)},
                  [&](SimTime t) { elapsed.push_back(t); });
    execute_chain(sim, {Stage::make_use(disk, 10.0)},
                  [&](SimTime t) { elapsed.push_back(t); });
  });
  sim.run();
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_DOUBLE_EQ(elapsed[0], 10.0);  // no wait
  EXPECT_DOUBLE_EQ(elapsed[1], 20.0);  // waited 10 behind the first
}

TEST(Stages, MixedChainOrdering) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  double elapsed = -1.0;
  StageChain chain = {Stage::make_delay(3.0), Stage::make_use(disk, 4.0),
                      Stage::make_delay(2.0)};
  execute_chain(sim, chain, [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 9.0);
}

TEST(Stages, EmptyChainCompletesImmediately) {
  Simulation sim;
  double elapsed = -1.0;
  execute_chain(sim, {}, [&](SimTime t) { elapsed = t; });
  EXPECT_DOUBLE_EQ(elapsed, 0.0);  // synchronous: no stages to schedule
}

TEST(Stages, RejectsInvalidStages) {
  Simulation sim;
  EXPECT_THROW(Stage::make_delay(-1.0), std::invalid_argument);
  EXPECT_THROW(execute_chain(sim, {}, nullptr), std::invalid_argument);
}

TEST(Stages, ManyConcurrentChainsOnOneResource) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  int completed = 0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    execute_chain(sim, {Stage::make_use(disk, 1.0)}, [&](SimTime) { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_DOUBLE_EQ(sim.now(), static_cast<double>(n));
}

/// One chain's completion: which chain, when, and its elapsed time.
struct Finished {
  int chain;
  SimTime at;
  SimTime elapsed;
  bool operator==(const Finished&) const = default;
};

/// A use stage of `first` on `resource`, `delays` delay stages of `gap`,
/// then a use stage of `last`: `delays + 2` stages.
StageChain long_chain(Resource& resource, SimTime first, std::size_t delays, SimTime gap,
                      SimTime last) {
  StageChain chain;
  chain.push_back(Stage::make_use(resource, first));
  for (std::size_t i = 0; i < delays; ++i) chain.push_back(Stage::make_delay(gap));
  chain.push_back(Stage::make_use(resource, last));
  return chain;
}

// Chains of 1, 3 and 10 stages queue in arrival order at a single server;
// a chain that comes back after a delay joins the back of the line.
TEST(Stages, ChainsQueueFifoAtASingleServer) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<Finished> finished;
  auto done = [&](int chain) {
    return [&finished, &sim, chain](SimTime elapsed) {
      finished.push_back({chain, sim.now(), elapsed});
    };
  };
  // A is served [0,10].  C arrives at 0 and is served [10,13], delays 8 x
  // 0.5 and is served again [17,18].  B arrives at 1 behind C, is served
  // [13,17] and delays 2.  At 17 B's service ends before C's delay does
  // (scheduled at 13, ahead of 16.5), so C finds the disk free.
  execute_chain(sim, {Stage::make_use(disk, 10.0)}, done(0));
  execute_chain(sim, {Stage::make_delay(1.0), Stage::make_use(disk, 4.0), Stage::make_delay(2.0)},
                done(1));
  const StageChain c = long_chain(disk, 3.0, 8, 0.5, 1.0);
  ASSERT_EQ(c.size(), 10u);
  execute_chain(sim, c, done(2));
  sim.run();
  EXPECT_EQ(finished, (std::vector<Finished>{{0, 10.0, 10.0}, {2, 18.0, 18.0}, {1, 19.0, 19.0}}));
  EXPECT_EQ(disk.completed(), 4u);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 18.0);
  // Waiting: C over [0,10], B over [1,13].
  EXPECT_DOUBLE_EQ(disk.mean_queue_length(), (10.0 + 12.0) / 19.0);
  EXPECT_EQ(sim.events_processed(), 14u);
}

// A served chain whose next stage uses the same resource again joins the
// line behind the chains that were already waiting: the resource starts
// its next waiter before it runs the served chain on.
TEST(Stages, AServedChainRequeuesBehindTheWaiters) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<Finished> finished;
  auto done = [&](int chain) {
    return [&finished, &sim, chain](SimTime elapsed) {
      finished.push_back({chain, sim.now(), elapsed});
    };
  };
  execute_chain(sim, {Stage::make_use(disk, 5.0), Stage::make_use(disk, 5.0)}, done(0));
  execute_chain(sim, {Stage::make_use(disk, 5.0)}, done(1));
  sim.run();
  EXPECT_EQ(finished, (std::vector<Finished>{{1, 10.0, 10.0}, {0, 15.0, 15.0}}));
}

// At two servers a finished service starts the oldest waiter, and chains
// whose services end at the same instant complete in scheduling order.
TEST(Stages, ChainsQueueFifoAtATwoServerResource) {
  Simulation sim;
  Resource cpu(sim, "cpu", 2);
  std::vector<Finished> finished;
  auto done = [&](int chain) {
    return [&finished, &sim, chain](SimTime elapsed) {
      finished.push_back({chain, sim.now(), elapsed});
    };
  };
  // X0 [0,10] and X1 [0,4] take the servers; X2 and X3 wait.  X2 is served
  // [4,10]; X1 delays to 5 and waits behind X3.  At 10 X0's service ends
  // first (scheduled at 0), so X3 is served [10,12] and X1 [10,14].  X3
  // delays 8 x 1 and is served again [20,22].
  execute_chain(sim, {Stage::make_use(cpu, 10.0)}, done(0));
  execute_chain(sim, {Stage::make_use(cpu, 4.0), Stage::make_delay(1.0), Stage::make_use(cpu, 4.0)},
                done(1));
  execute_chain(sim, {Stage::make_use(cpu, 6.0)}, done(2));
  execute_chain(sim, long_chain(cpu, 2.0, 8, 1.0, 2.0), done(3));
  EXPECT_EQ(cpu.in_service(), 2u);
  EXPECT_EQ(cpu.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(finished, (std::vector<Finished>{
                          {0, 10.0, 10.0}, {2, 10.0, 10.0}, {1, 14.0, 14.0}, {3, 22.0, 22.0}}));
  EXPECT_EQ(cpu.completed(), 6u);
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 28.0);
}

// A traced resource stage spans the wait and the service: ts is when the
// chain reached the resource, dur runs to the end of its service, and the
// resource's name is interned when the chain reaches it.
TEST(Stages, TracedStagesOfQueuedChainsSpanWaitAndService) {
  obs::TraceRing ring(64);
  obs::ScopedStageTrace scope(&ring);
  Simulation sim;
  Resource disk(sim, "disk", 1);
  Resource cpu(sim, "cpu", 2);
  int completed = 0;
  auto done = [&completed](SimTime) { ++completed; };
  // 0: disk [0,10].  1: delay [0,1], disk waits 1-10 and is served
  // [10,14].  2: cpu [0,3], then disk waits 3-14 and is served [14,16].
  execute_chain(sim, {Stage::make_use(disk, 10.0)}, done);
  execute_chain(sim, {Stage::make_delay(1.0), Stage::make_use(disk, 4.0)}, done);
  execute_chain(sim, {Stage::make_use(cpu, 3.0), Stage::make_use(disk, 2.0)}, done);
  sim.run();
  ASSERT_EQ(completed, 3);
  EXPECT_EQ(ring.names(), (std::vector<std::string>{"disk", "delay", "cpu"}));
  const std::vector<obs::TraceEvent> events = ring.ordered();
  // {ts, dur, name}, in push order.
  const std::vector<std::tuple<double, double, std::uint32_t>> expected = {
      {0.0, 1.0, 1}, {0.0, 3.0, 2}, {0.0, 10.0, 0}, {1.0, 13.0, 0}, {3.0, 13.0, 0}};
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_us, std::get<0>(expected[i])) << i;
    EXPECT_DOUBLE_EQ(events[i].dur_us, std::get<1>(expected[i])) << i;
    EXPECT_EQ(events[i].name_id, std::get<2>(expected[i])) << i;
    EXPECT_EQ(events[i].track, events[i].name_id) << i;
  }
}

TEST(Stages, StageChainSpillsPastItsInlineCapacity) {
  Simulation sim;
  StageChain chain;
  const std::size_t n = StageChain::kInlineCapacity + 3;
  for (std::size_t i = 0; i < n; ++i) chain.push_back(Stage::make_delay(static_cast<double>(i)));
  ASSERT_EQ(chain.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(chain[i].duration, static_cast<double>(i));
  const StageChain copy = chain;
  EXPECT_DOUBLE_EQ(chain_service_demand(copy), chain_service_demand(chain));
  StageChain moved = std::move(chain);
  EXPECT_EQ(moved.size(), n);
  EXPECT_TRUE(chain.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  double elapsed = -1.0;
  execute_chain(sim, std::move(moved), [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, static_cast<double>(n * (n - 1) / 2));
}

// A completion the size of the user simulator's: eight words and three
// small fields (sim::ChainDone's inline budget).
struct UsimSizedCapture {
  int* completed;
  std::uint64_t words[7];
  std::uint32_t op, session;
  std::uint8_t category[3];
};
static_assert(sizeof(UsimSizedCapture) == ChainDone::kInlineCapacity);

// The point of the chain pool, the inline ChainDone, the long-plan pool and
// the small-buffer StageChain: once warm, a simulated call — planned chain,
// queueing at a resource, service, completion — allocates nothing, whether
// its plan fits the chain state inline (up to two stages) or not.
TEST(Stages, WarmChainsThroughAResourceAllocateNothing) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  Resource cpu(sim, "cpu", 2);
  int completed = 0;
  UsimSizedCapture capture{&completed, {}, 0, 0, {}};
  auto burst = [&] {
    for (int i = 0; i < 200; ++i) {
      StageChain chain;
      chain.push_back(Stage::make_delay(1.0));
      chain.push_back(Stage::make_use(disk, 2.0));  // queues: 200 chains, one server
      chain.push_back(Stage::make_delay(0.5));
      execute_chain(sim, std::move(chain), [capture](SimTime) { ++*capture.completed; });
      // An NFS single-block read's shape: seven stages, two resources.
      StageChain seven;
      seven.push_back(Stage::make_use(cpu, 0.5));
      seven.push_back(Stage::make_delay(1.0));
      seven.push_back(Stage::make_use(cpu, 1.0));  // queues: 200 chains, two servers
      seven.push_back(Stage::make_use(disk, 1.5));
      seven.push_back(Stage::make_delay(1.0));
      seven.push_back(Stage::make_use(cpu, 0.5));
      seven.push_back(Stage::make_delay(1.0));
      execute_chain(sim, std::move(seven), [capture](SimTime) { ++*capture.completed; });
      // One and two stages.
      execute_chain(sim, {Stage::make_use(cpu, 0.25)},
                    [capture](SimTime) { ++*capture.completed; });
      execute_chain(sim, {Stage::make_use(disk, 0.25), Stage::make_delay(1.0)},
                    [capture](SimTime) { ++*capture.completed; });
    }
    sim.run();
  };
  burst();  // warm-up: grows the arena and the chain and plan pools
  ASSERT_EQ(completed, 800);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  burst();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(completed, 1600);
  EXPECT_EQ(disk.completed(), 1200u);
  EXPECT_EQ(cpu.completed(), 1600u);
}

// reset() with chains in flight (some waiting at a resource, some in
// service, some in a delay, with plans short and long) must release what
// their completions captured; so must destroying the Simulation.  LSan
// (the ASan job) checks the rest, spilled plans included.
TEST(Stages, ResetAndDestructionReleaseChainsInFlight) {
  auto token = std::make_shared<int>(0);
  auto long_plan = [](Resource& resource, std::size_t delays) {
    return long_chain(resource, 5.0, delays, 1.0, 5.0);
  };
  {
    Simulation sim;
    Resource disk(sim, "disk", 1);
    for (int i = 0; i < 100; ++i) {
      execute_chain(sim,
                    {Stage::make_delay(static_cast<double>(i % 4)), Stage::make_use(disk, 5.0)},
                    [token](SimTime) { ++*token; });
    }
    sim.schedule(4.0, [&] {
      // Five and twelve stages, waiting at the disk behind the rest.
      for (int i = 0; i < 20; ++i) {
        execute_chain(sim, long_plan(disk, 3), [token](SimTime) { ++*token; });
        execute_chain(sim, long_plan(disk, 10), [token](SimTime) { ++*token; });
      }
    });
    sim.run_until(20.0);
    EXPECT_GT(*token, 0);
    EXPECT_GT(token.use_count(), 1);
    EXPECT_GT(disk.queue_length(), 0u);
    sim.reset();
    EXPECT_EQ(token.use_count(), 1);

    // The recycled pools serve a fresh timeline.
    Resource cpu(sim, "cpu", 1);
    for (int i = 0; i < 10; ++i) {
      execute_chain(sim, {Stage::make_use(cpu, 1.0)}, [token](SimTime) { ++*token; });
      execute_chain(sim, long_plan(cpu, 2), [token](SimTime) { ++*token; });
      execute_chain(sim, long_plan(cpu, 9), [token](SimTime) { ++*token; });
    }
    sim.run_until(3.5);
    EXPECT_GT(token.use_count(), 1);
    EXPECT_GT(cpu.queue_length(), 0u);
  }  // destroyed with chains still in flight
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace wlgen::sim
