// xan_lint fixture: MUST stay silent.
//
// One deliberate instance of each new rule's shape, silenced with the
// shared suppression syntax (offending line or the line above).  Pins the
// escape hatch so annotated lines do not regress into findings.

namespace xanadu::fixture {

class SuppressedShapes {
 public:
  void begin() {
    // lint:allow(interner-escape) fixture: pinned suppression syntax
    keep_ = names_.view(symbol_);
  }

  void on_suppressed_tick() {
    sim_.schedule_after(Duration::millis(2), [this] { begin(); },
                        "sup.tick");
    // lint:allow(shard-lookahead) fixture: pinned suppression syntax
    peer_bus_->publish(topic_, payload_);
    // lint:allow(hot-path-text) fixture: pinned suppression syntax
    label_ = std::to_string(ticks_);
  }

 private:
  StringInterner names_;
  Symbol symbol_ = 0;
  std::string_view keep_;
  Simulator sim_;
  MessageBus* peer_bus_ = nullptr;
  TopicId topic_;
  Payload payload_;
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
