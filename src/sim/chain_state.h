#pragma once

#include <array>
#include <cstdint>

#include "sim/simulation.h"
#include "sim/stages.h"

namespace wlgen::sim {

/// A plan of more than ChainState::kInlineStages stages, moved whole out of
/// its StageChain (a spilled chain keeps its vector).  The Simulation owns
/// these in a second Pool (acquire_plan / release_plan).
struct LongPlan {
  StageChain chain;
  LongPlan* next = nullptr;  ///< Pool free-list link
};

/// The state of one executing chain (execute_chain, sim/stages.cpp).  The
/// Simulation owns these in a Pool (acquire_chain / release_chain), so a
/// warm simulation executes chains without allocating.  A chain waiting at
/// a Resource is queued there by this state itself.
struct ChainState {
  static constexpr std::uint32_t kInlineStages = 2;

  Simulation* sim = nullptr;
  SimTime start = 0.0;
  SimTime stage_start = 0.0;  ///< when the current stage started, if traced
  /// A Resource's waiting FIFO while the chain waits there; the Pool's free
  /// list once released.  A live state is never on the free list.
  ChainState* next = nullptr;
  std::uint32_t index = 0;  ///< the current stage
  std::uint32_t size = 0;   ///< stages in the plan
  std::array<Stage, kInlineStages> stages{};  ///< the plan, when size <= kInlineStages
  LongPlan* plan = nullptr;                   ///< the plan, when size > kInlineStages
  ChainDone done;

  const Stage& stage() const { return size <= kInlineStages ? stages[index] : plan->chain[index]; }
};

// sim* + start + stage_start + next + index/size + two stages + plan* +
// ChainDone: every op in flight holds one of these.
static_assert(sizeof(ChainState) <= 168);

/// Ends the current stage of a chain (its delay has passed, or its
/// resource has served it) and runs the chain on from the next stage
/// (sim/stages.cpp).
void finish_stage(ChainState& state);

}  // namespace wlgen::sim
