#pragma once

#include <cstddef>

namespace wlgen::util {

/// False under AddressSanitizer (gcc's __SANITIZE_ADDRESS__, clang's
/// feature test), where a PageBuffer is a new[] array: ASan replaces malloc
/// anyway, and checks the bounds only of what it hands out.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPageBufferMapsPages = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kPageBufferMapsPages = false;
#else
inline constexpr bool kPageBufferMapsPages = true;
#endif
#else
inline constexpr bool kPageBufferMapsPages = true;
#endif

/// A byte buffer whose pages come straight from the OS (an anonymous
/// mmap), for large buffers that live only part of a run.  Freeing a block
/// that malloc had mmapped raises glibc's mmap threshold, after which every
/// later large buffer comes from an arena, whose touched pages are never
/// given back; a PageBuffer never passes through malloc, so it cannot move
/// that threshold.  Its bytes start at zero, its pages are resident only
/// once written, and all of them go back to the OS when it is destroyed
/// (see kPageBufferMapsPages for the one exception).  Move-only; a
/// moved-from or default buffer is empty.
class PageBuffer {
 public:
  PageBuffer() = default;
  /// `size` bytes; none for 0.  Throws std::bad_alloc when the OS refuses.
  explicit PageBuffer(std::size_t size);
  ~PageBuffer();
  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  unsigned char* data() { return data_; }
  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// Moves to `size` new bytes whose first `keep` (at most both sizes) are
  /// the old first `keep`; only those are copied, so pages past them that
  /// were never written stay untouched.
  void grow(std::size_t size, std::size_t keep);

 private:
  void release();

  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace wlgen::util
