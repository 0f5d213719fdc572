#pragma once

// The one FNV-1a in src/: trace digests (metrics/), engine-state and probe
// digests, and the sharded runner's per-shard folds
// (workload/traffic_mix.cpp) are all built from these primitives.  FNV-1a
// is used deliberately: byte-order-free, dependency-free, and stable across
// platforms, so digests can be pinned in tests and compared across machines.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xanadu::common {

/// FNV-1a offset basis; digests of empty inputs equal this value.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds `size` bytes at `data` into a running FNV-1a digest.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    const char* data, std::size_t size, std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds `text` into a running FNV-1a digest.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view text, std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a_bytes(text.data(), text.size(), seed);
}

/// Folds `text` into two running FNV-1a digests in one loop over the bytes:
/// the same result as `first = fnv1a(text, first); second = fnv1a(text,
/// second);`.  Each digest is a serial chain of multiplies, but the two
/// chains are independent, so they overlap instead of running back to back.
constexpr void fnv1a_both(std::string_view text, std::uint64_t& first,
                          std::uint64_t& second) {
  std::uint64_t a = first;
  std::uint64_t b = second;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    a = (a ^ byte) * kFnvPrime;
    b = (b ^ byte) * kFnvPrime;
  }
  first = a;
  second = b;
}

/// Folds one 64-bit value into a running digest (little-endian byte order,
/// explicitly, so the result does not depend on host endianness).
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(
    std::uint64_t value, std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffU;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace xanadu::common
