// xan_lint fixture: MUST fire observer-purity exactly once.
//
// Distilled observation-perturbs-replay bug: a probe reports the key the
// pool's next keep-alive would fire under by reserving one.  A reservation
// takes the simulator's next sequence number, so every event queued after
// the sample gets a later key, a same-time tie can reorder, and merely
// sampling the probe moves the golden digest.  The reservation sits one
// call edge below the register_probes root.

namespace xanadu::fixture {

class KeepAliveProbes {
 public:
  void register_probes(ProbeRegistry& registry) const {
    registry.add("fixture.next_expiry_seq",
                 [this] { return next_expiry_seq(); });
  }

  std::uint64_t next_expiry_seq() const {
    // BAD: a reservation advances the simulator's sequence counter.
    return sim_->reserve_key(sim_->now() + keep_alive_).seq;
  }

 private:
  Simulator* sim_ = nullptr;
  Duration keep_alive_;
};

}  // namespace xanadu::fixture
