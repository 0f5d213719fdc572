// xan_lint fixture: hot-path-text MUST fire exactly three times.
//
// The pre-fix per-request shapes: a trace renderer that builds each row in
// a fresh std::ostringstream, and a bus payload formatted with snprintf on
// publish and parsed back with sscanf on delivery.  All three sit on paths
// an event handler reaches.

#include <cstdio>
#include <sstream>
#include <string>

namespace xanadu::fixture {

void append_rows(std::string& text, const Result& result) {
  std::ostringstream out;
  out << result.id << ',' << result.exec_ms << '\n';
  text += out.str();
}

std::string encode(const Event& event) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%u:%llu", event.kind, event.worker);
  return buffer;
}

class TextTrace {
 public:
  void on_request_done(const Result& result) {
    sim_.schedule_after(Duration::millis(1),
                        [this, result] { append_rows(text_, result); },
                        "text.fold");
  }

  void attach(Bus& bus) {
    bus.subscribe("workers", [this](const Message& message) {
      unsigned kind = 0;
      std::sscanf(message.payload.c_str(), "%u", &kind);
      publish_next(kind);
    });
  }

  void publish_next(unsigned kind) {
    bus_->publish(topic_, encode(Event{kind, 0}));
  }

 private:
  Simulator sim_;
  Bus* bus_ = nullptr;
  TopicId topic_;
  std::string text_;
};

}  // namespace xanadu::fixture
