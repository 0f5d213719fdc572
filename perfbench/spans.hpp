#pragma once

// In-memory span log for the traced run: each span is a name, a start and
// end on the host's steady clock, and the index of its parent span (-1 for a
// root).  Spans are recorded around the benchmark's calls into each layer
// and written out once, when the run ends.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span and returns its index.
  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int index) { spans_[static_cast<std::size_t>(index)].end = Clock::now(); }

  [[nodiscard]] double seconds(int index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return seconds_between(s.start, s.end);
  }

  /// Writes the spans as JSON lines (offsets in seconds from the log's
  /// creation).  Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, const std::string& header) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "%s\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                   i, s.name.c_str(), s.parent,
                   seconds_between(origin_, s.start),
                   seconds_between(origin_, s.end));
    }
    return std::fclose(out) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
