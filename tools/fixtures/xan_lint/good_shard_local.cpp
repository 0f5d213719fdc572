// xan_lint fixture: MUST stay silent.
//
// The shape every shard follows: its handlers schedule on their own
// simulator, publish on their own bus and drain their own queue.  Nothing
// names another shard, so nothing crosses to another thread.

namespace xanadu::fixture {

class LocalDaemon {
 public:
  void on_local_tick() {
    sim_.schedule_after(Duration::millis(5), [this] { forward(); },
                        "local.tick");
  }

  void forward() {
    bus_->publish(topic_, payload_);
    sim_.schedule_at(when_, drain_event(), "local.drain");
    sim_.run_until(when_);
    sim_.run();
  }

 private:
  Simulator sim_;
  MessageBus* bus_ = nullptr;
  TimePoint when_;
  TopicId topic_;
  Payload payload_;
};

}  // namespace xanadu::fixture
