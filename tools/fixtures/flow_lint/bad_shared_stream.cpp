// flow_lint fixture: the pre-fix speculative provision-batch race, distilled.
//
// Mirrors the old Cluster::sample_provision_latency / daemon_build_sandbox
// shape: a tied batch of daemon events is scheduled at the same instant, and
// each handler draws cold-start jitter from the *shared* cluster stream --
// so firing order decides which draw lands on which worker.  The analysis must
// report rule `shared-rng-draw` here, with a path from the handler root
// through the call edge to the draw.
//
// This file is analyzer input only; it is never compiled or linked.

#include "common/rng.hpp"

namespace fixture_bad {

class MiniCluster {
 public:
  double sample_provision_latency(int worker) {
    double millis = 100.0;
    millis += rng_.normal(0.0, 25.0);  // BAD: shared ambient stream.
    return millis + worker;
  }

 private:
  xanadu::common::Rng rng_;
};

class MiniPipeline {
 public:
  void daemon_build_sandbox(int worker) {
    latency_ = cluster_.sample_provision_latency(worker);
  }

  // Handler root: schedules the tied daemon-command batch; the lambda body
  // runs at event time.
  void speculate_batch(int batch) {
    for (int worker = 0; worker < batch; ++worker) {
      schedule_after(1.0, [this, worker] { daemon_build_sandbox(worker); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  MiniCluster cluster_;
  double latency_ = 0.0;
};

}  // namespace fixture_bad
