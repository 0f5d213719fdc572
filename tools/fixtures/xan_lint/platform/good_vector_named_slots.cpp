// xan_lint fixture: MUST stay silent.
//
// A std::vector that shares its name, `slots_`, with the unordered member
// of platform/unordered_slots.hpp -- which this file does not include, so
// iterating it (in index order) is not unordered iteration, and the digest
// it feeds is not tainted.

#include <cstdint>
#include <vector>

namespace xanadu::fixture {

std::uint64_t mix_into_digest(std::uint64_t digest, int value);

class IndexedSlots {
 public:
  std::uint64_t fold_indexed_slots() const {
    std::uint64_t digest = 0;
    for (const int value : slots_) digest = mix_into_digest(digest, value);
    return digest;
  }

 private:
  std::vector<int> slots_;
};

}  // namespace xanadu::fixture
