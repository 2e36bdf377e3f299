#pragma once

#include <cstddef>
#include <vector>

namespace wlgen::runner {

/// Half-open range of global user indices owned by one shard.
struct UserRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool contains(std::size_t user) const { return user >= begin && user < end; }

  bool operator==(const UserRange&) const = default;
};

/// The deterministic partitioning rule: shard s of K owns the contiguous
/// range [floor(s*N/K), floor((s+1)*N/K)) of the N global user indices.
/// Properties the runner and its tests rely on:
///
///   - ranges are disjoint and cover [0, N) exactly, in index order;
///   - shard sizes differ by at most one user (balanced);
///   - the rule depends only on (N, K) — never on thread scheduling.
///
/// When K > N, K - N shards are empty — interleaved among the others by
/// the floor rule, not trailing.  Empty shards are still returned, so
/// shard indices remain stable.
std::vector<UserRange> partition_users(std::size_t num_users, std::size_t shards);

}  // namespace wlgen::runner
