// xan_lint fixture: MUST stay silent.
//
// Pure observation: the state_digest accessor folds stored state, and the
// registered probe samplers reduce over members without writing anything.
// Locals may be written freely -- purity is about state that outlives the
// observation.

namespace xanadu::fixture {

class WindowProbe {
 public:
  double state_digest() const { return window_estimate() + arrival_total(); }
  double window_estimate() const { return window_sum_ / window_len_; }
  long arrival_total() const { return arrivals_; }

 private:
  double window_sum_ = 0.0;
  double window_len_ = 1.0;
  long arrivals_ = 0;
};

class ShardProbes {
 public:
  void register_probes(ProbeRegistry& registry) const {
    registry.add("fixture.warm_total", [this] { return warm_total(); });
  }

  double warm_total() const {
    double total = 0.0;
    for (double weight : weights_) {
      total += weight;  // Local accumulator: fine.
    }
    return total;
  }

 private:
  std::vector<double> weights_;
};

}  // namespace xanadu::fixture
