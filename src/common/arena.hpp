#pragma once

// Request-lifetime arena allocation.
//
// An Arena is a bump allocator over a chain of blocks: allocate() is a
// pointer bump, deallocation is a no-op, and reset() returns the whole arena
// to empty in O(block count) while keeping one block's memory for reuse.
// The platform engine gives every RequestContext its own arena so the
// per-request transient state (node records, XOR weight scratch, speculation
// sets) is freed wholesale when the request completes -- no per-container
// heap churn on the million-request macro path, and recycled contexts reuse
// their warm block instead of reallocating.
//
// Allocations larger than the block size fall back to a dedicated oversized
// block (still owned by the arena, still freed on reset), so callers never
// need to size-check.
//
// Blocks are sized to the work: the first is small (1 KiB by default, where
// a 4-node request uses about 650 B), and a cycle -- the allocations between
// two resets -- that spills out of it, into a second block or an oversized
// allocation, makes reset() keep one block large enough for that whole
// cycle.  A pooled arena thus costs what its largest request needed, and the
// next cycle of that shape makes no heap call.  Blocks are chained through a
// header at their start, so the bookkeeping itself never allocates.
//
// Under AddressSanitizer the unused tail of each block and everything
// released by reset() is poisoned, so a use-after-reset through a stale
// pointer faults immediately instead of silently reading recycled memory
// (regression-tested in common_test.cpp under XANADU_SANITIZE).

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XANADU_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define XANADU_ARENA_ASAN 1
#endif

namespace xanadu::common {

class Arena {
 public:
  /// `block_bytes` sizes the first regular block; requests larger than the
  /// current block size get their own oversized block.
  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).  Never
  /// returns nullptr; zero-byte requests yield a valid one-past pointer.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Typed convenience: uninitialized storage for `count` objects of T.
  template <typename T>
  [[nodiscard]] T* allocate_for(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Releases every allocation at once and keeps one regular block (its
  /// cursor rewound) so a recycled arena serves its next requests without
  /// touching the heap.  If this cycle spilled past its block, the kept
  /// block is a fresh one that fits the whole cycle, and the block size
  /// grows to match; otherwise it is the current block.  Every other block
  /// is freed.  All previously returned pointers become invalid (and
  /// poisoned under ASan).
  void reset();

  // -- Introspection (tests, memory accounting) -----------------------------

  /// Bytes handed out since construction or the last reset (excludes
  /// alignment padding).
  [[nodiscard]] std::size_t bytes_allocated() const { return allocated_; }
  /// Regular blocks currently owned.
  [[nodiscard]] std::size_t block_count() const { return block_count_; }
  /// Oversized (> block size) allocations currently live.
  [[nodiscard]] std::size_t oversized_count() const { return oversized_count_; }
  /// Current regular block size: the constructor's, grown by reset() to fit
  /// the largest cycle that spilled.
  [[nodiscard]] std::size_t block_bytes() const { return block_bytes_; }

  static constexpr std::size_t kDefaultBlockBytes = 1024;

 private:
  /// Header of one heap block; `size` usable bytes follow it.
  struct Block {
    Block* next;
    std::size_t size;
    [[nodiscard]] std::byte* data() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
  };

  /// A fresh block of `size` usable bytes (poisoned), linked before `next`.
  static Block* new_block(std::size_t size, Block* next);
  static void free_chain(Block* head) noexcept;
  /// Makes a fresh block of at least `min_bytes` the bump block.
  void push_block(std::size_t min_bytes);
  static void poison(const void* address, std::size_t size);
  static void unpoison(const void* address, std::size_t size);

  std::size_t block_bytes_;
  /// Bump block, chained to the regular blocks it replaced this cycle.
  Block* current_ = nullptr;
  Block* oversized_ = nullptr;
  std::size_t block_count_ = 0;
  std::size_t oversized_count_ = 0;
  /// Bump cursor into current_; meaningless when current_ is nullptr.
  std::size_t cursor_ = 0;
  std::size_t allocated_ = 0;
  /// This cycle's bytes plus worst-case alignment padding: one block of
  /// this size fits every allocation of the cycle.
  std::size_t demand_ = 0;
  /// This cycle left its block (a second regular block or an oversized one).
  bool spilled_ = false;
};

/// Minimal std::allocator adaptor over an Arena.  deallocate() is a no-op:
/// storage is reclaimed wholesale by Arena::reset().  Two allocators compare
/// equal iff they share the arena, so containers moved between allocators of
/// the same arena steal buffers instead of copying.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t count) {
    return arena_->allocate_for<T>(count);
  }
  void deallocate(T* /*pointer*/, std::size_t /*count*/) noexcept {}

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_;
};

/// The common container shape for per-request transient state.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace xanadu::common
