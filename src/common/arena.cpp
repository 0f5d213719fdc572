#include "common/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <new>

#if defined(XANADU_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace xanadu::common {

namespace {

[[nodiscard]] std::size_t align_up(std::size_t value, std::size_t align) {
  return (value + align - 1) & ~(align - 1);
}

/// Bytes to skip so that `base + cursor` is aligned to `align`.  The address
/// only places an allocation inside its block: no value derived from it is
/// stored, counted or compared, so a replay is the same whatever the layout.
[[nodiscard]] std::size_t padding(const std::byte* base, std::size_t cursor,
                                  std::size_t align) {
  // lint:allow(nondet-taint) see above
  const auto address = reinterpret_cast<std::uintptr_t>(base) + cursor;
  return align_up(address, align) - address;
}

}  // namespace

Arena::Arena(std::size_t block_bytes)
    : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

Arena::~Arena() {
  free_chain(current_);
  free_chain(oversized_);
}

Arena::Block* Arena::new_block(std::size_t size, Block* next) {
  // The header is 16 bytes, so the usable bytes keep operator new's
  // alignment.
  static_assert(sizeof(Block) % alignof(std::max_align_t) == 0);
  auto* block = ::new (::operator new(sizeof(Block) + size)) Block{next, size};
  poison(block->data(), size);
  return block;
}

void Arena::free_chain(Block* head) noexcept {
  while (head != nullptr) {
    Block* next = head->next;
    unpoison(head->data(), head->size);
    ::operator delete(head);
    head = next;
  }
}

void Arena::poison(const void* address, std::size_t size) {
#if defined(XANADU_ARENA_ASAN)
  ASAN_POISON_MEMORY_REGION(address, size);
#else
  (void)address;
  (void)size;
#endif
}

void Arena::unpoison(const void* address, std::size_t size) {
#if defined(XANADU_ARENA_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(address, size);
#else
  (void)address;
  (void)size;
#endif
}

void Arena::push_block(std::size_t min_bytes) {
  current_ = new_block(min_bytes > block_bytes_ ? min_bytes : block_bytes_,
                       current_);
  ++block_count_;
  cursor_ = 0;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (align == 0) align = 1;
  allocated_ += bytes;
  demand_ += bytes + align - 1;

  // Oversized fallback: a dedicated block the bump path never sees, so one
  // huge request cannot strand the tail of a regular block.  Over-allocated
  // by align-1: operator new only guarantees
  // __STDCPP_DEFAULT_NEW_ALIGNMENT__.
  if (bytes > block_bytes_) {
    spilled_ = true;
    oversized_ = new_block(bytes + align - 1, oversized_);
    ++oversized_count_;
    std::byte* data = oversized_->data();
    std::byte* pointer = data + padding(data, 0, align);
    unpoison(pointer, bytes);
    return pointer;
  }

  if (current_ == nullptr) push_block(block_bytes_);
  // Align the POINTER, not the offset: the block storage itself is only
  // guaranteed __STDCPP_DEFAULT_NEW_ALIGNMENT__-aligned.
  std::byte* base = current_->data();
  std::size_t offset = cursor_ + padding(base, cursor_, align);
  if (offset + bytes > current_->size) {
    spilled_ = true;
    push_block(bytes + align);  // Guaranteed fit after pointer alignment.
    base = current_->data();
    offset = padding(base, 0, align);
  }
  cursor_ = offset + bytes;
  unpoison(base + offset, bytes);
  return base + offset;
}

void Arena::reset() {
  free_chain(oversized_);
  oversized_ = nullptr;
  oversized_count_ = 0;
  if (spilled_) {
    // The cycle outgrew its block: trade every block for one that holds the
    // whole cycle, so the next cycle of this shape stays inside it.  A power
    // of two leaves headroom, so slightly larger cycles do not regrow it.
    block_bytes_ = std::max(block_bytes_, std::bit_ceil(demand_));
    free_chain(current_);
    current_ = nullptr;
    block_count_ = 0;
    push_block(block_bytes_);
  } else if (current_ != nullptr) {
    poison(current_->data(), current_->size);
  }
  cursor_ = 0;
  allocated_ = 0;
  demand_ = 0;
  spilled_ = false;
}

}  // namespace xanadu::common
