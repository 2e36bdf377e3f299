#include "runner/partition.h"

#include <stdexcept>

namespace wlgen::runner {

std::vector<UserRange> partition_users(std::size_t num_users, std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("partition_users: need >= 1 shard");
  std::vector<UserRange> out;
  out.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    // floor(s*N/K) boundaries; the products stay well inside 64 bits for
    // any population this simulator can hold in memory.
    out.push_back(UserRange{s * num_users / shards, (s + 1) * num_users / shards});
  }
  return out;
}

}  // namespace wlgen::runner
