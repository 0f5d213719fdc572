// xan_lint fixture: the header that declares an unordered member.
//
// Its name, `slots_`, counts as unordered in this file and in every file
// that includes it -- and nowhere else.

#pragma once

#include <cstdint>
#include <unordered_map>

namespace xanadu::fixture {

std::uint64_t mix_into_digest(std::uint64_t digest, int value);

class HashedSlots {
 public:
  std::uint64_t fold_hashed_slots() const;

 private:
  std::unordered_map<int, int> slots_;
};

}  // namespace xanadu::fixture
