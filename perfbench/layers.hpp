#pragma once

// Reading each layer from outside: counter snapshots around a replay, the
// modelled-platform metrics of an outcome, the standalone metrics refold,
// the steady-state check and the `core` planner micro-timings.  Everything
// here goes through public accessors only.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario.hpp"

namespace perfbench {

/// Counters summed over a scenario's managers.  Take one before and one
/// after a replay; the difference is the replay's work.
struct Counters {
  std::uint64_t events_fired = 0;
  std::uint64_t slab_capacity = 0;
  std::uint64_t bus_published = 0;
  std::uint64_t bus_delivered = 0;
  std::uint64_t provisions_started = 0;
};
[[nodiscard]] Counters snapshot(Scenario& scenario);

/// Histogram quantile with its in-range check.
struct Quantile {
  double value_ms = 0.0;
  /// False when the quantile's rank falls in the overflow bucket.
  bool in_range = false;
  /// Samples strictly above the quantile's bin.
  std::uint64_t beyond = 0;
  [[nodiscard]] bool operator==(const Quantile&) const = default;
};
/// q-quantile of `histogram`, linearly interpolated inside its bin.
[[nodiscard]] Quantile quantile(const metrics::LatencyHistogram& histogram,
                                double q);

/// The modelled platform's end-to-end metrics (virtual time, per request).
struct Modelled {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cd_mean_ms = 0.0;
  Quantile cd_p50;
  Quantile cd_p99;
  std::uint64_t cd_samples = 0;
  double cd_max_ms = 0.0;
  double latency_mean_ms = 0.0;
  double cold_starts_per_request = 0.0;
  double cr_cpu_s_per_request = 0.0;
  double cr_mem_mbs_per_request = 0.0;
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  [[nodiscard]] bool operator==(const Modelled&) const = default;
};
[[nodiscard]] Modelled modelled(const Replay& replay);

/// Trace digest recomputed by a standalone metrics::StreamingTrace fold over
/// the retained results, combined across lanes exactly as the runner does.
[[nodiscard]] std::uint64_t refold_digest(Scenario& scenario,
                                          const Replay& replay);

/// Trace-CSV bytes the digest hashes for the retained results (rows only).
[[nodiscard]] std::uint64_t trace_bytes(Scenario& scenario, const Replay& replay);

/// Steady-state check of one tenant lane: mean C_D over the middle tenths
/// of its requests (second to ninth) against the last tenth and against the
/// lane's fully cold C_D.
struct SteadyState {
  std::string lane;
  double middle_ms = 0.0;
  double last_ms = 0.0;
  double cold_ms = 0.0;
  /// The backlog grows (last tenth > 1.5 x middle + 100 ms), or requests
  /// queue longer than a fully cold start of their whole workflow takes.
  [[nodiscard]] bool overloaded() const {
    return last_ms > 1.5 * middle_ms + 100.0 || middle_ms > cold_ms;
  }
};
[[nodiscard]] std::vector<SteadyState> steady_state(const Scenario& scenario,
                                                    const Replay& replay);

/// Median host time of one estimate_mlp / plan_explicit call on each
/// workflow's learned model, averaged over the workflows.  `plan` false
/// skips the planner (reported as 0).
struct CoreTiming {
  double mlp_us = 0.0;
  double plan_us = 0.0;
};
[[nodiscard]] CoreTiming time_core(Scenario& scenario, bool plan,
                                   SpanLog& spans);

}  // namespace perfbench
