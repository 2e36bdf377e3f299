#include "sim/stages.h"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "sim/chain_state.h"

namespace wlgen::sim {

Stage Stage::make_delay(SimTime duration) {
  if (duration < 0.0) throw std::invalid_argument("Stage::make_delay: negative duration");
  return Stage{nullptr, duration};
}

Stage Stage::make_use(Resource& resource, SimTime service_time) {
  if (service_time < 0.0) throw std::invalid_argument("Stage::make_use: negative service time");
  return Stage{&resource, service_time};
}

SimTime chain_service_demand(const StageChain& chain) {
  SimTime total = 0.0;
  for (const auto& s : chain) total += s.duration;
  return total;
}

namespace {

// Template keeps the continuation's concrete type: delay stages hand the raw
// lambda to Simulation::schedule, use stages to Resource::use — inline in
// EventFn either way, so neither allocates.
template <typename Fn>
void dispatch_stage(ChainState& state, const Stage& stage, Fn&& continuation) {
  if (stage.is_delay()) {
    state.sim->schedule(stage.duration, std::forward<Fn>(continuation));
  } else {
    stage.resource->use(stage.duration, std::forward<Fn>(continuation));
  }
}

void run_stage(ChainState* state, std::size_t index) {
  if (index >= state->chain.size()) {
    // Hand the state back before completing, so a completion that starts
    // the next chain (the user simulator's next op) reuses it.
    Simulation& sim = *state->sim;
    ChainDone done = std::move(state->done);
    const SimTime elapsed = sim.now() - state->start;
    sim.release_chain(*state);
    done(elapsed);
    return;
  }
  const Stage& stage = state->chain[index];
  // One thread-local load + predictable branch when tracing is off; the
  // traced continuation schedules the same events at the same times, so the
  // simulated outcome — and every stats digest — is identical either way.
  obs::TraceRing* ring = obs::stage_trace_slot();
  if (ring == nullptr) {
    dispatch_stage(*state, stage, [state, index]() { run_stage(state, index + 1); });
    return;
  }
  const SimTime t0 = state->sim->now();
  const std::uint32_t name_id =
      ring->intern(stage.is_delay() ? std::string_view("delay") : stage.resource->name());
  dispatch_stage(*state, stage, [state, index, ring, name_id, t0]() {
    obs::TraceEvent event;
    event.ts_us = t0;
    event.dur_us = state->sim->now() - t0;
    event.name_id = name_id;
    event.track = name_id;  // one virtual-time track per resource name
    ring->push(event);
    run_stage(state, index + 1);
  });
}

}  // namespace

void execute_chain(Simulation& sim, StageChain chain, ChainDone done) {
  if (!done) throw std::invalid_argument("execute_chain: empty completion");
  ChainState& state = sim.acquire_chain();
  state.sim = &sim;
  state.chain = std::move(chain);
  state.done = std::move(done);
  state.start = sim.now();
  run_stage(&state, 0);
}

}  // namespace wlgen::sim
