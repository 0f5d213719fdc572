// flow_lint fixture: the same hazards as the bad fixtures, but each carrying
// a reviewed // lint:allow(<rule>) escape.  The flow rules must report zero
// findings here -- this pins the suppression syntax (same line and
// line-above placement both work).
//
// This file is analyzer input only; it is never compiled or linked.

#include <chrono>
#include <cstdint>

#include "common/rng.hpp"

namespace fixture_suppressed {

class QuietCluster {
 public:
  double sample(int worker) {
    double millis = 100.0;
    // Reviewed: consulted in a fixed serial order; the race sweep covers it.
    millis += rng_.normal(0.0, 25.0);  // lint:allow(shared-rng-draw)
    return millis + worker;
  }

 private:
  xanadu::common::Rng rng_;
};

class QuietPipeline {
 public:
  void tick(int worker) { last_ = cluster_.sample(worker); }

  void arm(int batch) {
    for (int worker = 0; worker < batch; ++worker) {
      schedule_after(1.0, [this, worker] { tick(worker); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  QuietCluster cluster_;
  double last_ = 0.0;
};

std::uint64_t quiet_digest(std::uint64_t seed) { return seed ^ 0x9e3779b9ULL; }

double quiet_stamp() {
  // lint:allow(nondet-taint) reviewed: demo of line-above placement.
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

std::uint64_t quiet_report() {
  return quiet_digest(static_cast<std::uint64_t>(quiet_stamp()));
}

}  // namespace fixture_suppressed
