#pragma once

// Small-buffer-optimized move-only callable for simulator events.
//
// Every scheduled event used to carry a std::function<void()>, and every
// engine lambda captures more than libstdc++'s 16-byte inline budget
// ([this, request, node, worker_id, ...] is 24-40 bytes), so each schedule
// paid a heap allocation and each queue sift paid a type-erased move.
// EventFn widens the inline budget to cover every capture the platform
// actually schedules (the largest, the engine's worker handoff
// [this, request_id, node, worker_id, fn_id], is five 8-byte values, 40
// bytes), so the common path never allocates.
// Oversized or potentially-throwing-move callables transparently fall back
// to the heap.
//
// Move-only by design: an event callback is invoked at most once from
// exactly one queue slot, so copyability would only invite accidental
// capture duplication.

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace xanadu::sim {

class EventFn {
 public:
  /// Inline capture budget, 56 bytes: more than the largest closure the
  /// platform schedules, the engine's 40-byte worker handoff.  With the two
  /// function pointers and the max_align_t alignment of the buffer,
  /// sizeof(EventFn) is 80 bytes (pinned below the class).
  static constexpr std::size_t kInlineCapacity = 56;

  EventFn() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      // An empty std::function wraps to an empty EventFn, so callers keep
      // the "scheduling an empty callback throws" contract instead of a
      // deferred std::bad_function_call at fire time.
      if (!f) return;
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      manage_ = &inline_manage<D>;
    } else {
      ::new (static_cast<void*>(storage_)) (D*)(new D(std::forward<F>(f)));
      invoke_ = &heap_invoke<D>;
      manage_ = &heap_manage<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(storage_); }

  /// Destroys the held callable (releasing its captures) and empties.
  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::Destroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  /// True when a callable of type `D` is stored in the inline buffer rather
  /// than on the heap.  Exposed so tests can pin the no-allocation claim.
  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  enum class Op { MoveTo, Destroy };

  using Invoke = void (*)(void*);
  /// MoveTo: relocate the callable from `self` storage into `other` storage
  /// and destroy the source.  Destroy: destroy in place.
  using Manage = void (*)(Op, void* self, void* other);

  template <typename D>
  static void inline_invoke(void* storage) {
    (*std::launder(reinterpret_cast<D*>(storage)))();
  }

  template <typename D>
  static void inline_manage(Op op, void* self, void* other) {
    D* f = std::launder(reinterpret_cast<D*>(self));
    if (op == Op::MoveTo) ::new (other) D(std::move(*f));
    f->~D();
  }

  template <typename D>
  static void heap_invoke(void* storage) {
    (**std::launder(reinterpret_cast<D**>(storage)))();
  }

  template <typename D>
  static void heap_manage(Op op, void* self, void* other) {
    D** slot = std::launder(reinterpret_cast<D**>(self));
    if (op == Op::MoveTo) {
      ::new (other) (D*)(*slot);  // Pointer ownership transfers.
    } else {
      delete *slot;
    }
  }

  void move_from(EventFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      other.manage_(Op::MoveTo, other.storage_, storage_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

// 56 + 16 bytes of pointers, padded to the 16-byte alignment of storage_.
static_assert(sizeof(EventFn) == 80, "EventFn is 80 bytes");

}  // namespace xanadu::sim
