#include "workload/arrivals.hpp"

#include <stdexcept>

namespace xanadu::workload {

ArrivalSchedule fixed_interval(std::size_t count, sim::Duration interval) {
  if (interval < sim::Duration::zero()) {
    throw std::invalid_argument{"fixed_interval: negative interval"};
  }
  ArrivalSchedule schedule;
  schedule.reserve(count);
  sim::Duration t = sim::Duration::zero();
  for (std::size_t i = 0; i < count; ++i) {
    schedule.push_back(t);
    t += interval;
  }
  return schedule;
}

ArrivalSchedule decreasing_progression() {
  // Figure 5's gaps (Section 2.3): each step applies while the gap is above
  // its threshold.
  constexpr sim::Duration kStart = sim::Duration::from_minutes(60);
  constexpr sim::Duration kStepCoarse = sim::Duration::from_minutes(10);
  constexpr sim::Duration kMidThreshold = sim::Duration::from_minutes(30);
  constexpr sim::Duration kStepMid = sim::Duration::from_minutes(5);
  constexpr sim::Duration kFineThreshold = sim::Duration::from_minutes(10);
  constexpr sim::Duration kStepFine = sim::Duration::from_minutes(1);
  constexpr sim::Duration kMinInterval = sim::Duration::from_minutes(1);
  ArrivalSchedule schedule;
  sim::Duration t = sim::Duration::zero();
  schedule.push_back(t);
  sim::Duration gap = kStart;
  while (gap >= kMinInterval) {
    t += gap;
    schedule.push_back(t);
    if (gap > kMidThreshold) {
      gap -= kStepCoarse;
    } else if (gap > kFineThreshold) {
      gap -= kStepMid;
    } else {
      gap -= kStepFine;
    }
  }
  return schedule;
}

ArrivalSchedule uniform_random(sim::Duration min_gap, sim::Duration max_gap,
                               sim::Duration horizon, common::Rng& rng) {
  if (max_gap < min_gap) {
    throw std::invalid_argument{"uniform_random: max_gap < min_gap"};
  }
  if (max_gap <= sim::Duration::zero()) {
    throw std::invalid_argument{"uniform_random: max_gap must be positive"};
  }
  ArrivalSchedule schedule;
  sim::Duration t = sim::Duration::zero();
  while (t <= horizon) {
    schedule.push_back(t);
    t += sim::Duration::from_micros(static_cast<std::int64_t>(rng.uniform(
        static_cast<double>(min_gap.micros()),
        static_cast<double>(max_gap.micros()))));
  }
  return schedule;
}

ArrivalSchedule poisson(sim::Duration mean_gap, sim::Duration horizon,
                        common::Rng& rng) {
  if (mean_gap <= sim::Duration::zero()) {
    throw std::invalid_argument{"poisson: mean gap must be positive"};
  }
  ArrivalSchedule schedule;
  sim::Duration t = sim::Duration::zero();
  while (t <= horizon) {
    schedule.push_back(t);
    t += sim::Duration::from_micros(static_cast<std::int64_t>(
        rng.exponential(static_cast<double>(mean_gap.micros()))));
  }
  return schedule;
}

}  // namespace xanadu::workload
