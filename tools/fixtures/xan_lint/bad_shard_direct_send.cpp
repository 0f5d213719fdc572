// xan_lint fixture: MUST fire shard-lookahead exactly twice.
//
// Distilled from a cross-shard effect that the TSan job catches only when
// executed: handler-reachable code schedules directly into another shard's
// simulator, which another thread may be draining.

namespace xanadu::fixture {

class CrossShardDaemon {
 public:
  void on_window_tick() {
    sim_.schedule_after(Duration::millis(5), [this] { pump(); },
                        "daemon.tick");
    // BAD 1: direct schedule into the peer shard's simulator.
    peer_sim_->schedule_at(sim_.now(), make_probe_event(), "daemon.probe");
  }

  void pump() {
    // BAD 2: reaching across the shard set by index.
    owner_.shard(1).simulator().schedule_at(next_when_, drain_event(),
                                            "daemon.drain");
  }

 private:
  Simulator sim_;
  Simulator* peer_sim_ = nullptr;
  ShardSet owner_;
  TimePoint next_when_;
};

}  // namespace xanadu::fixture
