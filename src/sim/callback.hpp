#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ragnar::sim {

// The event record: a move-only `void()` callable that stores its capture
// inline.  Every hot capture on the event path — a lambda carrying an
// rnic::InFlightMsg plus three words, as in fabric hops and rnic response
// stages — fits the inline buffer, so scheduling an event never allocates.
// Only larger, over-aligned or throwing-move callables fall back to one heap
// allocation.  Moving a Callback relocates its capture (the source is left
// empty), so a record handed down `Engine::post` -> `Scheduler::at` ->
// `EventQueue::push` as `Callback&&` is built once at the call site and
// moved once into its queue slot.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 160;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>)
  Callback(F&& f) {  // implicit: call sites pass lambdas straight through
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      if constexpr (!std::is_trivially_copyable_v<D>) {
        manage_ = &manage_inline<D>;
      }
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      invoke_ = [](void* p) { (*load_heap<D>(p))(); };
      manage_ = &manage_heap<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  // Precondition: holds a callable (not default-constructed or moved from).
  void operator()() { invoke_(buf_); }

 private:
  // True when `F` is stored in the inline buffer rather than on the heap.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  enum class Op { kRelocate, kDestroy };
  // kRelocate moves the callable from `self` into `dst` and ends its life
  // in `self`; kDestroy destroys it.  Null for trivially copyable inline
  // callables: those relocate by copying the buffer and need no destruction.
  using Manage = void (*)(Op, void* self, void* dst) noexcept;

  template <typename D>
  static void manage_inline(Op op, void* self, void* dst) noexcept {
    D* f = static_cast<D*>(self);
    if (op == Op::kRelocate) ::new (dst) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static D* load_heap(void* buf) noexcept {
    D* p = nullptr;
    std::memcpy(&p, buf, sizeof p);
    return p;
  }
  template <typename D>
  static void manage_heap(Op op, void* self, void* dst) noexcept {
    if (op == Op::kRelocate) {
      std::memcpy(dst, self, sizeof(D*));
    } else {
      delete load_heap<D>(self);
    }
  }

  // Destroy the held callable (if any) and leave this Callback empty.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void take(Callback& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      other.manage_(Op::kRelocate, other.buf_, buf_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace ragnar::sim
