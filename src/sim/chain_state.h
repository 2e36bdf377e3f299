#pragma once

#include "sim/simulation.h"
#include "sim/stages.h"

namespace wlgen::sim {

/// The state of one executing chain (execute_chain, sim/stages.cpp).  The
/// Simulation owns these in a Pool (acquire_chain / release_chain), so a
/// warm simulation executes chains without allocating.
struct ChainState {
  Simulation* sim = nullptr;
  SimTime start = 0.0;
  ChainState* next = nullptr;  ///< Pool free-list link
  StageChain chain;
  ChainDone done;
};

}  // namespace wlgen::sim
