#pragma once

// A growable array with inline room for N elements.
//
// Holds up to N trivially copyable elements inside the object and moves
// them to one heap buffer only when the (N+1)-th arrives.  Building or
// copying a list of at most N elements therefore never touches the heap --
// the point for per-request records on the replay hot path (a chain node's
// `invoked_by` list holds one parent), where a std::vector would allocate
// on the first push_back and again on every copy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace xanadu::common {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVector copies its elements bytewise");
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(const InlineVector& other) { append(other); }
  InlineVector(InlineVector&& other) noexcept { take(other); }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      size_ = 0;
      append(other);
    }
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }

  // xan_lint resolves member calls by name, so every `.push_back` the lint
  // sees in an observation path lands here; the writes below touch only
  // this container, which the caller owns.
  void push_back(const T& value) {
    if (size_ == capacity_) grow(2 * std::size_t{capacity_});
    elements()[size_++] = value;  // lint:allow(observer-purity)
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* begin() { return elements(); }
  [[nodiscard]] T* end() { return elements() + size_; }
  [[nodiscard]] const T* begin() const { return elements(); }
  [[nodiscard]] const T* end() const { return elements() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return elements()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return elements()[i]; }

 private:
  [[nodiscard]] T* elements() { return heap_ ? &heap_[0] : inline_; }
  [[nodiscard]] const T* elements() const {
    return heap_ ? &heap_[0] : inline_;
  }
  /// Moves the elements to a heap buffer of `capacity` (> capacity_).
  void grow(std::size_t capacity) {
    auto grown = std::make_unique_for_overwrite<T[]>(capacity);
    std::copy(begin(), end(), &grown[0]);
    heap_ = std::move(grown);  // lint:allow(observer-purity)
    capacity_ = static_cast<std::uint32_t>(capacity);  // lint:allow(observer-purity)
  }
  void append(const InlineVector& other) {
    if (size_ + other.size_ > capacity_) grow(size_ + other.size_);
    std::copy(other.begin(), other.end(), end());
    size_ += other.size_;
  }
  /// Steals `other`'s heap buffer, or copies its inline elements, and leaves
  /// it empty with inline capacity.
  void take(InlineVector& other) {
    heap_ = std::move(other.heap_);
    capacity_ = heap_ ? other.capacity_ : N;
    size_ = other.size_;
    if (!heap_) std::copy(other.inline_, other.inline_ + size_, inline_);
    other.size_ = 0;
    other.capacity_ = N;
  }

  T inline_[N];
  std::unique_ptr<T[]> heap_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace xanadu::common
