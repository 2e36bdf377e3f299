#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace wlgen::sim {

/// Move-only type-erased `void(Args...)` callable with a small-buffer
/// optimisation.
///
/// Captures up to `Capacity` bytes are stored inline — constructing, moving
/// and destroying such a callback never touches the heap, which is what
/// makes scheduling a simulation event allocation-free.  With
/// `HeapFallback`, larger captures (rare) take a single heap cell; without
/// it they fail to compile, so a hot path cannot silently start allocating.
///
/// Replaces std::function in the event queue and the stage-chain
/// completions: std::function's small-buffer is both smaller and
/// unspecified, and its copyability forces capture-by-shared-state idioms
/// the DES kernel does not need.
template <std::size_t Capacity, bool HeapFallback, typename... Args>
class InlineFn {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    // An empty std::function (or null function pointer) wraps to an empty
    // InlineFn, so schedule-time validation still rejects it instead of
    // crashing at dispatch time.
    if constexpr (requires { fn == nullptr; }) {
      if (fn == nullptr) return;
    }
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      static_assert(HeapFallback,
                    "capture exceeds this callback's inline storage (or is not nothrow-movable); "
                    "shrink the capture or raise the capacity");
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()(Args... args) { ops_->invoke(storage_, args...); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*, Args...);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= kAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static inline const Ops kInlineOps = {
      [](void* s, Args... args) { (*std::launder(reinterpret_cast<Fn*>(s)))(args...); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static inline const Ops kHeapOps = {
      [](void* s, Args... args) { (**std::launder(reinterpret_cast<Fn**>(s)))(args...); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void move_from(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  // Pointer alignment covers every capture of pointers, references,
  // integers and doubles, and keeps the callback at Capacity + 8 bytes.
  static constexpr std::size_t kAlign = alignof(void*);
  alignas(kAlign) unsigned char storage_[Capacity]{};
  const Ops* ops_ = nullptr;
};

/// A simulation event: `void()`, 48 bytes inline — room for the common
/// continuation capture (`this` + a few words) — with a heap fallback for
/// rare large captures.
using EventFn = InlineFn<48, true>;

}  // namespace wlgen::sim
