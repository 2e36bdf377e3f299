#include "fsmodel/lru_cache.h"

namespace wlgen::fsmodel {

namespace {
constexpr std::size_t kInitialSlots = 16;
}

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("LruCache: capacity must be >= 1");
  clear();
}

std::size_t LruCache::home(std::uint64_t key) const {
  // Fibonacci hashing: the multiply spreads sequential ids (block numbers)
  // over the table's top bits.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t LruCache::find(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = home(key);
  while (slots_[slot].node != kNone && slots_[slot].key != key) slot = (slot + 1) & mask;
  return slot;
}

bool LruCache::access(std::uint64_t key) {
  const Slot& slot = slots_[find(key)];
  if (slot.node == kNone) {
    ++misses_;
    return false;
  }
  ++hits_;
  unlink(slot.node);
  push_front(slot.node);
  return true;
}

bool LruCache::contains(std::uint64_t key) const { return slots_[find(key)].node != kNone; }

bool LruCache::insert(std::uint64_t key) {
  std::size_t slot = find(key);
  if (slots_[slot].node != kNone) {
    unlink(slots_[slot].node);
    push_front(slots_[slot].node);
    return false;
  }
  bool evicted = false;
  std::uint32_t node = kNone;
  if (size_ >= capacity_) {
    node = tail_;
    unlink(node);
    remove_slot(find(nodes_[node].key));
    --size_;
    evicted = true;
  } else if (free_ != kNone) {
    node = free_;
    free_ = nodes_[node].next;
  } else {
    if (nodes_.size() >= kNone) throw std::length_error("LruCache: too many entries");
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({});
  }
  if (2 * (size_ + 1) > slots_.size()) grow();
  slot = find(key);  // the removal or the growth may have moved its place
  nodes_[node].key = key;
  push_front(node);
  slots_[slot] = {key, node};
  ++size_;
  return evicted;
}

void LruCache::erase(std::uint64_t key) {
  const std::size_t slot = find(key);
  const std::uint32_t node = slots_[slot].node;
  if (node == kNone) return;
  unlink(node);
  remove_slot(slot);
  nodes_[node].next = free_;
  free_ = node;
  --size_;
}

void LruCache::clear() {
  nodes_.clear();
  slots_.assign(kInitialSlots, {0, kNone});
  shift_ = 64 - 4;  // log2(kInitialSlots)
  head_ = tail_ = free_ = kNone;
  size_ = 0;
}

void LruCache::remove_slot(std::size_t slot) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless the hole lies before its home, so that no tombstones
  // are needed and every key stays reachable from its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t next = (hole + 1) & mask; slots_[next].node != kNone; next = (next + 1) & mask) {
    const std::size_t want = home(slots_[next].key);
    // `next` may move to `hole` when its home is not in (hole, next].
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].node = kNone;
}

void LruCache::grow() {
  std::vector<Slot> old(2 * slots_.size(), Slot{0, kNone});
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& entry : old) {
    if (entry.node == kNone) continue;
    std::size_t slot = home(entry.key);
    while (slots_[slot].node != kNone) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

void LruCache::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  (n.prev == kNone ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNone ? tail_ : nodes_[n.next].prev) = n.prev;
}

void LruCache::push_front(std::uint32_t node) {
  nodes_[node].prev = kNone;
  nodes_[node].next = head_;
  (head_ == kNone ? tail_ : nodes_[head_].prev) = node;
  head_ = node;
}

double LruCache::hit_ratio() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void LruCache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace wlgen::fsmodel
