#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace wlgen::sim {

/// Stable-address object pool: objects come in blocks and are recycled
/// through an intrusive free list threaded through their `next` member (a
/// `T*`).  Once warm, acquire and release never allocate, and growing never
/// moves a live object, so there is no reallocation spike.  Blocks double
/// from 8 objects up to 1024, so a pool that stays small (a simulation
/// that runs few chains at once, or few long ones) costs one small block,
/// and a pool that grows large costs few allocations.
///
/// Holds the Simulation's stage-chain states and long plans (sim/chain_state.h).
template <typename T>
class Pool {
 public:
  T& acquire() {
    if (free_ == nullptr) {
      const std::size_t n = block_size(blocks_.size());
      const auto& block = blocks_.emplace_back(std::make_unique<T[]>(n));
      for (std::size_t i = n; i-- > 0;) release(block[i]);
    }
    T& object = *free_;
    free_ = object.next;
    return object;
  }

  void release(T& object) {
    object.next = free_;
    free_ = &object;
  }

  /// Calls `fn(object)` on every object, live or free, then puts them all
  /// back on the free list — the recycle-everything path of a reset.
  template <typename Fn>
  void reclaim_all(Fn&& fn) {
    free_ = nullptr;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      for (std::size_t i = block_size(b); i-- > 0;) {
        fn(blocks_[b][i]);
        release(blocks_[b][i]);
      }
    }
  }

 private:
  static constexpr std::size_t block_size(std::size_t index) {
    return std::size_t{8} << std::min<std::size_t>(index, 7);
  }

  std::vector<std::unique_ptr<T[]>> blocks_;
  T* free_ = nullptr;
};

}  // namespace wlgen::sim
