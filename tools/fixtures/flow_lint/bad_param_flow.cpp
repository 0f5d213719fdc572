// flow_lint fixture: interprocedural stream lineage.  The shared member
// stream never appears textually at the draw site -- it is passed by
// reference into a helper, and the helper draws.  The analysis must trace the
// lineage through the Rng& parameter and report `shared-rng-draw` at the
// helper's draw site.
//
// This file is analyzer input only; it is never compiled or linked.

#include "common/rng.hpp"

namespace fixture_param {

double jitter_helper(xanadu::common::Rng& stream, double stddev) {
  return stream.normal(0.0, stddev);  // BAD via caller: shared stream aliased.
}

class Forwarder {
 public:
  void on_command(int worker) { last_ = jitter_helper(rng_, 25.0) + worker; }

  void arm(int batch) {
    for (int worker = 0; worker < batch; ++worker) {
      schedule_after(1.0, [this, worker] { on_command(worker); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  xanadu::common::Rng rng_;
  double last_ = 0.0;
};

}  // namespace fixture_param
