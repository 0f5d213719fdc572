#pragma once

// Request arrival processes used by the paper's experiments:
//   * fixed-interval trains (the 10-trigger cold-start trials),
//   * the decreasing arithmetic progression of Figure 5 (inter-arrival
//     gaps of 60 min stepping down by 10 min, then 5 min, then 1 min),
//   * uniform random U(0, 60 min) gaps emulating a lightly loaded workflow
//     (~2 requests/hour, Figure 6),
//   * Poisson arrivals for general open-loop load.

#include <vector>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace xanadu::workload {

/// Absolute submission times relative to experiment start.
using ArrivalSchedule = std::vector<sim::Duration>;

/// `count` arrivals spaced exactly `interval` apart, starting at t = 0.
[[nodiscard]] ArrivalSchedule fixed_interval(std::size_t count,
                                             sim::Duration interval);

/// The Figure 5 profile: the first gap is 60 min and successive gaps
/// shrink by 10 min down to 30 min, then by 5 min down to 10 min, then by
/// 1 min down to 1 min.  Returns the cumulative arrival times (first
/// arrival at t = 0, second after 60 min, ...).
[[nodiscard]] ArrivalSchedule decreasing_progression();

/// Gaps drawn from U(min_gap, max_gap) until `horizon` is filled.
[[nodiscard]] ArrivalSchedule uniform_random(sim::Duration min_gap,
                                             sim::Duration max_gap,
                                             sim::Duration horizon,
                                             common::Rng& rng);

/// Poisson process with the given mean inter-arrival gap over `horizon`.
[[nodiscard]] ArrivalSchedule poisson(sim::Duration mean_gap,
                                      sim::Duration horizon, common::Rng& rng);

}  // namespace xanadu::workload
