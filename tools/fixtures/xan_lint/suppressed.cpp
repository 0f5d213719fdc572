// xan_lint fixture: MUST stay silent.
//
// One deliberate instance of each interprocedural rule's shape, silenced
// with the shared suppression syntax (offending line or the line above).
// Pins the escape hatch so annotated lines do not regress into findings.

namespace xanadu::fixture {

class SuppressedShapes {
 public:
  void on_suppressed_tick() {
    sim_.schedule_after(Duration::millis(2), [this] { ++ticks_; },
                        "sup.tick");
    // lint:allow(hot-path-text) fixture: pinned suppression syntax
    label_ = std::to_string(ticks_);
  }

 private:
  Simulator sim_;
  std::string label_;
  unsigned ticks_ = 0;
};

class NoisyProbe {
 public:
  double state_digest() const {
    // lint:allow(observer-purity) fixture: pinned suppression syntax
    return probe_rng_.normal(0.0, 1.0);
  }

 private:
  Rng probe_rng_;
};

}  // namespace xanadu::fixture
