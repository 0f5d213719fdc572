#pragma once

// Counting global operator new for the traced run (the `common` layer's
// allocation counts).  The replacement operators live in alloc_count.cpp and
// are linked into the benchmark binary only; counting is off until
// AllocCounter::start() and costs one relaxed load per allocation otherwise.

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

class AllocCounter {
 public:
  /// Zeroes the counters and starts counting (all threads).
  static void start();
  /// Stops counting and returns what was counted since start().
  static AllocCount stop();
};

}  // namespace perfbench
