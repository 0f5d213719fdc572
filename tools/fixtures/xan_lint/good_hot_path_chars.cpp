// xan_lint fixture: MUST stay silent.
//
// The post-fix shapes: handler-reachable code renders numbers with
// std::to_chars into the caller's buffer and passes typed payloads.  Text
// formatting that no handler reaches (a one-off report) is fine.

#include <charconv>
#include <cstdio>
#include <string>

namespace xanadu::fixture {

void append_row_chars(std::string& text, std::uint64_t id) {
  char buffer[20];
  text.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, id).ptr);
  text += '\n';
}

class CharsTrace {
 public:
  void on_row_done(std::uint64_t id) {
    sim_.schedule_after(Duration::millis(1),
                        [this, id] { append_row_chars(text_, id); },
                        "chars.fold");
  }

  void attach_typed(Bus& bus) {
    bus.subscribe("workers", [this](const Message& message) {
      const auto* event = std::get_if<WorkerEvent>(&message.payload);
      if (event != nullptr) bus_->publish(topic_, *event);
    });
  }

 private:
  Simulator sim_;
  Bus* bus_ = nullptr;
  TopicId topic_;
  std::string text_;
};

void print_summary(const std::string& text) {
  char line[64];
  std::snprintf(line, sizeof line, "%zu bytes", text.size());
  std::puts(line);
}

}  // namespace xanadu::fixture
