// flow_lint fixture: wall-clock taint reaching a digest sink across a call
// edge.  The flow analysis must report rule `nondet-taint` with the path
// stamp_millis() -> emit_report() -> trace_digest().
//
// This file is analyzer input only; it is never compiled or linked.

#include <chrono>
#include <cstdint>

namespace fixture_taint {

std::uint64_t trace_digest(std::uint64_t seed) { return seed * 1099511628211ULL; }

double stamp_millis() {
  // BAD: real time read inside code whose result feeds a digest.
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

std::uint64_t emit_report() {
  const double stamp = stamp_millis();
  return trace_digest(static_cast<std::uint64_t>(stamp));
}

}  // namespace fixture_taint
