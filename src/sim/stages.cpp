#include "sim/stages.h"

#include <algorithm>
#include <cstdint>
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

std::string_view stage_name(const Stage& stage) {
  return stage.is_delay() ? std::string_view("delay") : stage.resource->name();
}

void run_stage(ChainState& state) {
  Simulation& sim = *state.sim;
  if (state.index >= state.size) {
    // Hand the state back before completing, so a completion that starts
    // the next chain (the user simulator's next op) reuses it.
    ChainDone done = std::move(state.done);
    const SimTime elapsed = sim.now() - state.start;
    if (state.plan != nullptr) sim.release_plan(*state.plan);
    sim.release_chain(state);
    done(elapsed);
    return;
  }
  const Stage& stage = state.stage();
  // One thread-local load + predictable branch when tracing is off; a traced
  // stage schedules the same events at the same times, so the simulated
  // outcome — and every stats digest — is identical either way.  The name
  // is interned when the stage starts, which fixes the trace's name ids.
  if (obs::TraceRing* ring = obs::stage_trace_slot()) {
    ring->intern(stage_name(stage));
    state.stage_start = sim.now();
  }
  if (stage.is_delay()) {
    sim.schedule(stage.duration, [chain = &state]() { finish_stage(*chain); });
  } else {
    stage.resource->serve(state);  // finish_stage once served
  }
}

}  // namespace

void finish_stage(ChainState& state) {
  if (obs::TraceRing* ring = obs::stage_trace_slot()) {
    obs::TraceEvent event;
    event.ts_us = state.stage_start;
    event.dur_us = state.sim->now() - state.stage_start;
    event.name_id = ring->intern(stage_name(state.stage()));  // interned at the start
    event.track = event.name_id;  // one virtual-time track per resource name
    ring->push(event);
  }
  ++state.index;
  run_stage(state);
}

void execute_chain(Simulation& sim, StageChain chain, ChainDone done) {
  if (!done) throw std::invalid_argument("execute_chain: empty completion");
  ChainState& state = sim.acquire_chain();
  state.sim = &sim;
  state.start = sim.now();
  state.index = 0;
  state.size = static_cast<std::uint32_t>(chain.size());
  if (chain.size() <= ChainState::kInlineStages) {
    std::copy(chain.begin(), chain.end(), state.stages.begin());
    state.plan = nullptr;
  } else {
    state.plan = &sim.acquire_plan();
    state.plan->chain = std::move(chain);
  }
  state.done = std::move(done);
  run_stage(state);
}

}  // namespace wlgen::sim
