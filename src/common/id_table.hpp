#pragma once

// Tables keyed by a dense id.
//
// Every id counts up from 0 -- common::IdGenerator issues workflow,
// function, request and worker ids, and a node's id is its index in its
// DAG -- so a table can find an entry from the id itself instead of hashing
// it.  Two shapes:
//
//   * IdTable   entry `id` at position id.value().  For entries that live
//               as long as their owner: workflows, functions, nodes, pools.
//   * IdWindow  a ring over the ids from the oldest live entry to the
//               newest, for entries that come and go (requests, workers):
//               its size follows the live span, not every id ever issued,
//               and once it spans the live ids it stops growing.
//
// Both keep each entry behind its own pointer, so a reference to an entry
// survives the table growing, and both visit their entries in ascending id
// order, so nothing observable depends on a hash layout.  Neither renumbers
// an id: ids also key random streams, trace rows and digests, so the id is
// always the caller's, never a slot the table picked.
//
// An id read from outside input (a metadata document, say) must be bounded
// before it reaches an IdTable, which grows to hold its largest id.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace xanadu::common {

/// Entries indexed by id value.  Copying the table copies the entries.
template <typename IdType, typename T>
class IdTable {
 public:
  IdTable() = default;
  IdTable(const IdTable& other) { *this = other; }
  IdTable(IdTable&&) noexcept = default;
  IdTable& operator=(IdTable&&) noexcept = default;
  IdTable& operator=(const IdTable& other) {
    if (this == &other) return *this;
    entries_.clear();
    entries_.resize(other.entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (other.entries_[i]) {
        entries_[i] = std::make_unique<T>(*other.entries_[i]);
      }
    }
    size_ = other.size_;
    return *this;
  }

  /// The entry of `id`, or nullptr.  Any id, even an invalid one, may be
  /// looked up.
  [[nodiscard]] T* find(IdType id) {
    return id.value() < entries_.size() ? entries_[id.value()].get()
                                        : nullptr;
  }
  [[nodiscard]] const T* find(IdType id) const {
    return id.value() < entries_.size() ? entries_[id.value()].get()
                                        : nullptr;
  }
  [[nodiscard]] bool contains(IdType id) const { return find(id) != nullptr; }
  /// Entries present.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The entry of `id`, constructed from `args` when absent.
  template <typename... Args>
  T& try_emplace(IdType id, Args&&... args) {
    std::unique_ptr<T>& entry = slot_for(id);
    if (!entry) {
      entry = std::make_unique<T>(std::forward<Args>(args)...);
      ++size_;
    }
    return *entry;
  }

  /// Installs `value` as the entry of `id`, replacing any.
  T& insert_or_assign(IdType id, T value) {
    std::unique_ptr<T>& entry = slot_for(id);
    if (entry) {
      *entry = std::move(value);
    } else {
      entry = std::make_unique<T>(std::move(value));
      ++size_;
    }
    return *entry;
  }

  /// Calls fn(id, entry) for every entry, in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]) fn(IdType{i}, std::as_const(*entries_[i]));
    }
  }

 private:
  std::unique_ptr<T>& slot_for(IdType id) {
    if (!id.valid()) throw std::invalid_argument{"IdTable: invalid id"};
    if (id.value() >= entries_.size()) entries_.resize(id.value() + 1);
    return entries_[id.value()];
  }

  std::vector<std::unique_ptr<T>> entries_;
  std::size_t size_ = 0;
};

/// Entries of the ids in [oldest live id, newest live id], held in a ring
/// whose capacity is a power of two.  Erasing the oldest entry slides the
/// window forward; the ring grows only when the live span outgrows it.
template <typename IdType, typename T>
class IdWindow {
 public:
  /// The entry of `id`, or nullptr.  An id below the window wraps to a
  /// large offset, so one comparison rejects ids on either side.
  [[nodiscard]] T* find(IdType id) {
    const std::uint64_t offset = id.value() - base_;
    return offset < span_ ? ring_[(head_ + offset) & mask()].get() : nullptr;
  }
  [[nodiscard]] const T* find(IdType id) const {
    const std::uint64_t offset = id.value() - base_;
    return offset < span_ ? ring_[(head_ + offset) & mask()].get() : nullptr;
  }
  /// Entries present.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Installs `entry` as the entry of `id`, replacing any.  `id` may lie
  /// below the window (the window then extends backwards).
  T& insert(IdType id, std::unique_ptr<T> entry) {
    std::unique_ptr<T>& slot = cover(id);
    if (!slot) ++size_;
    slot = std::move(entry);
    return *slot;
  }

  /// Removes and returns the entry of `id`; nullptr when absent.
  std::unique_ptr<T> extract(IdType id) {
    const std::uint64_t offset = id.value() - base_;
    if (offset >= span_) return nullptr;
    std::unique_ptr<T> taken = std::move(ring_[(head_ + offset) & mask()]);
    if (!taken) return nullptr;
    --size_;
    // Trim both ends, so the window spans only live ids.
    while (span_ > 0 && !ring_[head_]) {
      head_ = (head_ + 1) & mask();
      ++base_;
      --span_;
    }
    while (span_ > 0 && !ring_[(head_ + span_ - 1) & mask()]) --span_;
    return taken;
  }
  /// Removes the entry of `id`; false when absent.
  bool erase(IdType id) { return extract(id) != nullptr; }

  /// Calls fn(id, entry) for every entry, in ascending id order.  `fn` must
  /// not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < span_; ++i) {
      const std::unique_ptr<T>& slot = ring_[(head_ + i) & mask()];
      if (slot) fn(IdType{base_ + i}, std::as_const(*slot));
    }
  }

 private:
  [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }

  /// Extends the window to cover `id` and returns its slot.
  std::unique_ptr<T>& cover(IdType id) {
    if (!id.valid()) throw std::invalid_argument{"IdWindow: invalid id"};
    if (span_ == 0) base_ = id.value();
    if (id.value() < base_) {
      const std::uint64_t extra = base_ - id.value();
      widen(span_ + extra);
      head_ = (head_ - extra) & mask();
      base_ = id.value();
      span_ += extra;
    } else if (id.value() - base_ >= span_) {
      widen(id.value() - base_ + 1);
      span_ = id.value() - base_ + 1;
    }
    return ring_[(head_ + (id.value() - base_)) & mask()];
  }

  /// Grows the ring to hold `span` consecutive ids, unwrapping it.
  void widen(std::uint64_t span) {
    if (span <= ring_.size()) return;
    std::size_t capacity = ring_.empty() ? 8 : ring_.size();
    while (capacity < span) capacity *= 2;
    std::vector<std::unique_ptr<T>> ring(capacity);
    for (std::size_t i = 0; i < span_; ++i) {
      ring[i] = std::move(ring_[(head_ + i) & mask()]);
    }
    ring_ = std::move(ring);
    head_ = 0;
  }

  /// Slots outside [head_, head_ + span_) are always empty.
  std::vector<std::unique_ptr<T>> ring_;
  /// Id value held at ring_[head_].
  std::uint64_t base_ = 0;
  std::size_t head_ = 0;
  /// Ids covered, from base_ on.
  std::size_t span_ = 0;
  std::size_t size_ = 0;
};

}  // namespace xanadu::common
