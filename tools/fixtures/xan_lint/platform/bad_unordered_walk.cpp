// xan_lint fixture: MUST fire, twice.
//
// A range-for over the unordered member of the header this file includes:
// the hash order leaks into a digest.  unordered-iteration flags the loop
// and nondet-taint flags the digest it reaches.

#include "platform/unordered_slots.hpp"

namespace xanadu::fixture {

std::uint64_t HashedSlots::fold_hashed_slots() const {
  std::uint64_t digest = 0;
  for (const auto& [key, value] : slots_) {
    digest = mix_into_digest(digest, key + value);
  }
  return digest;
}

}  // namespace xanadu::fixture
