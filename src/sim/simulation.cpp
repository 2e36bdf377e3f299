#include "sim/simulation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/chain_state.h"

namespace wlgen::sim {

namespace {
constexpr std::size_t kArity = 4;
}

Simulation::Simulation() = default;
Simulation::~Simulation() = default;

void Simulation::schedule(SimTime delay, EventFn action) {
  if (delay < 0.0) throw std::invalid_argument("Simulation::schedule: negative delay");
  schedule_at(now_ + delay, std::move(action));
}

void Simulation::schedule_at(SimTime when, EventFn action) {
  if (when < now_) throw std::invalid_argument("Simulation::schedule_at: time in the past");
  if (!action) throw std::invalid_argument("Simulation::schedule_at: empty action");

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(action);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  }
  heap_keys_.push_back(HeapKey{when, next_seq_++});
  heap_slots_.push_back(slot);
  sift_up(heap_keys_.size() - 1);
}

void Simulation::reset() {
  heap_keys_.clear();
  heap_slots_.clear();
  // clear() destroys the pooled callbacks but keeps the vector capacity, so
  // the next run repopulates slots in place without reallocating.
  slots_.clear();
  free_slots_.clear();
  // Chains still in flight can never finish now: drop their completions
  // (and whatever those captured) and put every state back on the list.
  chains_.reclaim_all([](ChainState& state) { state.done.reset(); });
  plans_.reclaim_all([](LongPlan&) {});
  now_ = 0.0;
  next_seq_ = 0;
  processed_ = 0;
}

ChainState& Simulation::acquire_chain() { return chains_.acquire(); }

void Simulation::release_chain(ChainState& state) { chains_.release(state); }

LongPlan& Simulation::acquire_plan() { return plans_.acquire(); }

void Simulation::release_plan(LongPlan& plan) { plans_.release(plan); }

void Simulation::sift_up(std::size_t i) {
  const HeapKey key = heap_keys_[i];
  const std::uint32_t slot = heap_slots_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_keys_[parent])) break;
    heap_keys_[i] = heap_keys_[parent];
    heap_slots_[i] = heap_slots_[parent];
    i = parent;
  }
  heap_keys_[i] = key;
  heap_slots_[i] = slot;
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_keys_.size();
  const HeapKey key = heap_keys_[i];
  const std::uint32_t slot = heap_slots_[i];
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_keys_[c], heap_keys_[best])) best = c;
    }
    if (!before(heap_keys_[best], key)) break;
    heap_keys_[i] = heap_keys_[best];
    heap_slots_[i] = heap_slots_[best];
    i = best;
  }
  heap_keys_[i] = key;
  heap_slots_[i] = slot;
}

void Simulation::dispatch_top() {
  const HeapKey top = heap_keys_.front();
  const std::uint32_t top_slot = heap_slots_.front();
  heap_keys_.front() = heap_keys_.back();
  heap_slots_.front() = heap_slots_.back();
  heap_keys_.pop_back();
  heap_slots_.pop_back();
  if (!heap_keys_.empty()) sift_down(0);

  // Move the callback out and recycle its slot *before* invoking, so the
  // action can schedule new events (possibly reusing this very slot).
  EventFn action = std::move(slots_[top_slot]);
  free_slots_.push_back(top_slot);
  now_ = top.when;
  ++processed_;
  action();
}

void Simulation::run(std::size_t max_events) {
  while (!heap_keys_.empty()) {
    if (max_events != 0 && processed_ >= max_events) {
      throw std::runtime_error("Simulation::run: event budget exhausted (possible livelock)");
    }
    dispatch_top();
  }
}

void Simulation::run_before(SimTime t) {
  if (t < now_) throw std::invalid_argument("Simulation::fire_at: time in the past");
  while (!heap_keys_.empty() && heap_keys_.front().when < t) dispatch_top();
  now_ = t;
}

void Simulation::run_until(SimTime t) {
  if (t < now_) throw std::invalid_argument("Simulation::run_until: time in the past");
  while (!heap_keys_.empty() && heap_keys_.front().when <= t) dispatch_top();
  // The clock advances to t even when no event was pending — callers use
  // run_until to model idle wall-clock periods.
  now_ = t;
}

}  // namespace wlgen::sim
