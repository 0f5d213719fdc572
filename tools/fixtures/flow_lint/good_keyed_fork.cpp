// flow_lint fixture: the post-fix shape.  Handler-reachable code derives a
// per-entity stream with fork_stream(stable_key) and draws from that local;
// the analysis reports zero findings -- fork_stream() never consumes parent
// state and the local stream is not shared.
//
// This file is analyzer input only; it is never compiled or linked.

#include <cstdint>

#include "common/rng.hpp"

namespace fixture_good {

class KeyedCluster {
 public:
  double sample(std::uint64_t fn_id, std::uint64_t worker_id) const {
    double millis = 100.0;
    xanadu::common::Rng jitter = rng_.fork_stream(fn_id * 31 + worker_id);
    millis += jitter.normal(0.0, 25.0);  // OK: keyed per-provision stream.
    return millis;
  }

 private:
  xanadu::common::Rng rng_;
};

class KeyedPipeline {
 public:
  void build(std::uint64_t worker) { last_ = cluster_.sample(7, worker); }

  void speculate(std::uint64_t batch) {
    for (std::uint64_t worker = 0; worker < batch; ++worker) {
      schedule_after(1.0, [this, worker] { build(worker); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  KeyedCluster cluster_;
  double last_ = 0.0;
};

}  // namespace fixture_good
