#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace wlgen::fsmodel {

/// Fixed-capacity LRU set keyed by 64-bit ids (block keys, inode numbers).
/// Used for the NFS client block/attribute caches and the server buffer
/// cache; the hit/miss counters feed the model statistics.
///
/// Entries live in a node array linked by index into a recency list, and
/// an open-addressed table (linear probing, backward-shift deletion) finds
/// a key's node.  Both grow as entries arrive, up to the capacity, so an
/// access or an eviction allocates nothing once the cache is full.
class LruCache {
 public:
  explicit LruCache(std::size_t capacity);

  /// Looks up `key`; a hit refreshes recency.  Counted in the statistics.
  bool access(std::uint64_t key);

  /// True when present, without updating recency or statistics.
  bool contains(std::uint64_t key) const;

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// when at capacity.  Returns true when an eviction happened.
  bool insert(std::uint64_t key);

  /// Removes a key if present (e.g. invalidation after unlink).
  void erase(std::uint64_t key);

  /// Drops everything.
  void clear();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// hits / (hits + misses); 0 when no accesses were made.
  double hit_ratio() const;

  void reset_stats();

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Node {
    std::uint64_t key;
    std::uint32_t prev;  ///< more recent neighbour (kNone at the head)
    std::uint32_t next;  ///< less recent neighbour (kNone at the tail)
  };
  struct Slot {
    std::uint64_t key;
    std::uint32_t node;  ///< kNone when the slot is empty
  };

  std::size_t home(std::uint64_t key) const;
  /// The slot holding `key`, or the empty slot that ends its probe.
  std::size_t find(std::uint64_t key) const;
  void remove_slot(std::size_t slot);
  void grow();
  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);

  std::size_t capacity_;
  std::vector<Node> nodes_;  ///< grown to at most capacity_ nodes
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  unsigned shift_ = 0;       ///< 64 - log2(slots_.size())
  std::uint32_t head_ = kNone;  ///< most recently used
  std::uint32_t tail_ = kNone;  ///< least recently used
  std::uint32_t free_ = kNone;  ///< erased nodes, chained through next
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wlgen::fsmodel
