#include "sim/time.hpp"

#include <cmath>
#include <cstdio>

namespace xanadu::sim {

namespace {
// Handlers reach format_micros only through calls of other to_string()
// overloads that the name-based call graph cannot tell apart; it formats
// for humans (logs, examples), never per event.
std::string format_micros(std::int64_t us) {
  char buf[64];
  const double abs_us = std::abs(static_cast<double>(us));
  if (abs_us >= 1e6) {
    // lint:allow(hot-path-text) human-readable output only (see above)
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(us) / 1e6);
  } else if (abs_us >= 1e3) {
    // lint:allow(hot-path-text) human-readable output only (see above)
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(us) / 1e3);
  } else {
    // lint:allow(hot-path-text) human-readable output only (see above)
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(us));
  }
  return buf;
}
}  // namespace

std::string to_string(Duration d) { return format_micros(d.micros()); }

std::string to_string(TimePoint t) { return format_micros(t.micros()); }

}  // namespace xanadu::sim
