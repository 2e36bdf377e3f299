#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace wlgen::sim {

/// One step of a modelled operation: either a pure delay (no contention, e.g.
/// network propagation or a cache-hit copy) or the use of a contended
/// resource (disk, CPU, shared network medium).  16 bytes, so a whole
/// typical plan fits StageChain's inline buffer.
struct Stage {
  Resource* resource = nullptr;  ///< the contended resource; null for a delay
  SimTime duration = 0.0;        ///< delay length or service demand, in µs

  bool is_delay() const { return resource == nullptr; }

  static Stage make_delay(SimTime duration);
  static Stage make_use(Resource& resource, SimTime service_time);
};

/// A compiled operation: an ordered chain of stages.  File-system models
/// (fsmodel) compile each system call into one of these; the executor walks
/// the chain and reports the total elapsed (queueing + service) time, which
/// is exactly the paper's per-syscall response time.
///
/// A small-buffer sequence: up to kInlineCapacity stages live inline (an
/// NFS single-block read, the longest common plan, is seven), so planning
/// and executing an op does not allocate; longer chains (multi-block
/// transfers) spill to one heap vector.
class StageChain {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  StageChain() = default;
  StageChain(std::initializer_list<Stage> stages) {
    for (const Stage& s : stages) push_back(s);
  }
  StageChain(const StageChain&) = default;
  StageChain& operator=(const StageChain&) = default;
  StageChain(StageChain&& other) noexcept
      : inline_(other.inline_),
        spill_(std::move(other.spill_)),
        size_(std::exchange(other.size_, 0)) {}
  StageChain& operator=(StageChain&& other) noexcept {
    inline_ = other.inline_;
    spill_ = std::move(other.spill_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  void push_back(const Stage& stage) {
    if (size_ < kInlineCapacity) {
      inline_[size_] = stage;
    } else {
      if (size_ == kInlineCapacity) spill_.assign(inline_.begin(), inline_.end());
      spill_.push_back(stage);
    }
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Stage* begin() { return data(); }
  Stage* end() { return data() + size_; }
  const Stage* begin() const { return data(); }
  const Stage* end() const { return data() + size_; }

  Stage& operator[](std::size_t i) { return data()[i]; }
  const Stage& operator[](std::size_t i) const { return data()[i]; }

 private:
  Stage* data() { return size_ > kInlineCapacity ? spill_.data() : inline_.data(); }
  const Stage* data() const { return size_ > kInlineCapacity ? spill_.data() : inline_.data(); }

  std::array<Stage, kInlineCapacity> inline_{};
  std::vector<Stage> spill_;  ///< all stages once size_ > kInlineCapacity
  std::size_t size_ = 0;
};

/// Total service demand of a chain (ignores queueing).
SimTime chain_service_demand(const StageChain& chain);

/// A chain's completion, called with the elapsed (queueing + service) time.
/// The inline storage fits the user simulator's completion, the largest in
/// the tree; a larger capture is a compile error, never a silent heap cell.
using ChainDone = InlineFn<80, false, SimTime>;

/// Executes the chain starting now; calls `done(elapsed_us)` when the last
/// stage finishes.  Many chains may be in flight concurrently.  Once the
/// simulation's chain and plan pools are warm, a chain of up to
/// StageChain::kInlineCapacity stages executes without allocating.
void execute_chain(Simulation& sim, StageChain chain, ChainDone done);

}  // namespace wlgen::sim
