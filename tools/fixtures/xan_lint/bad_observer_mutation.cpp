// xan_lint fixture: MUST fire observer-purity exactly twice.
//
// Distilled observation-perturbs-replay bug: the digest accessor
// "refreshes" the estimate it folds on read -- it bumps a counter folded
// into state_digest and draws smoothing jitter, so merely observing the run
// moves the golden digest.  Both violations sit one call edge below the
// state_digest root.

namespace xanadu::fixture {

struct EngineState {
  long reads_ = 0;
  Rng jitter_rng_;
  double estimate_ = 0.0;
};

double refresh_estimate(EngineState& engine) {
  engine.reads_ += 1;  // BAD 1: member write on an observation path.
  // BAD 2: Rng draw on an observation path (stream state advances).
  return engine.estimate_ + engine.jitter_rng_.normal(0.0, 1.0);
}

class EstimateProbe {
 public:
  double state_digest() const { return refresh_estimate(*engine_); }

 private:
  EngineState* engine_ = nullptr;
};

}  // namespace xanadu::fixture
