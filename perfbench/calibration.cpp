#include "calibration.hpp"

#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kIterations = 20'000'000;

}  // namespace

double calibration_loop_s(std::uint64_t& checksum) {
  const Clock::time_point start = Clock::now();
  // Six independent add/xor chains: the loop is bound by how many integer
  // operations the core retires per second, which is what other tenants on
  // the same core and the host's clock take away.  The empty asm keeps each
  // chain in a register and stops the compiler from folding or vectorising
  // the loop, so every build runs the same instructions.
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    a += b ^ i;
    b += c ^ i;
    c += d ^ i;
    d += e ^ i;
    e += f ^ i;
    f += a ^ i;
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  }
  checksum = a + b + c + d + e + f;
  return seconds_between(start, Clock::now());
}

}  // namespace perfbench
