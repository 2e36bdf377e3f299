#include "util/page_buffer.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace wlgen::util {

PageBuffer::PageBuffer(std::size_t size) {
  if (size == 0) return;
  if constexpr (kPageBufferMapsPages) {
    void* const pages =
        ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<unsigned char*>(pages);
  } else {
    data_ = new unsigned char[size]();
  }
  size_ = size;
}

PageBuffer::~PageBuffer() { release(); }

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void PageBuffer::grow(std::size_t size, std::size_t keep) {
  PageBuffer grown(size);
  keep = std::min({keep, size, size_});
  if (keep > 0) std::memcpy(grown.data_, data_, keep);
  *this = std::move(grown);
}

void PageBuffer::release() {
  if (data_ == nullptr) return;
  if constexpr (kPageBufferMapsPages) {
    ::munmap(data_, size_);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
  size_ = 0;
}

}  // namespace wlgen::util
