#include "sim/fault_plan.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace xanadu::sim {

namespace {

void require_rate(double rate, const char* name) {
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument{std::string{"FaultPlanOptions: "} + name +
                                " must be in [0, 1]"};
  }
}

/// One host outage per virtual millisecond on average.  Above it the
/// exponential gaps round to 0 us and the virtual clock stops advancing.
constexpr double kMaxHostOutageRatePerHour = 3.6e6;

}  // namespace

bool FaultPlanOptions::any_enabled() const {
  return bus_drop_rate > 0.0 || bus_duplicate_rate > 0.0 ||
         bus_delay_rate > 0.0 || provision_failure_rate > 0.0 ||
         worker_crash_rate > 0.0 || host_outage_rate_per_hour > 0.0 ||
         straggler_rate > 0.0;
}

void FaultPlanOptions::validate() const {
  require_rate(bus_drop_rate, "bus_drop_rate");
  require_rate(bus_duplicate_rate, "bus_duplicate_rate");
  require_rate(bus_delay_rate, "bus_delay_rate");
  if (bus_drop_rate + bus_duplicate_rate + bus_delay_rate > 1.0) {
    throw std::invalid_argument{
        "FaultPlanOptions: bus fault rates must sum to <= 1"};
  }
  require_rate(provision_failure_rate, "provision_failure_rate");
  require_rate(worker_crash_rate, "worker_crash_rate");
  require_rate(straggler_rate, "straggler_rate");
  // The upper comparison rejects NaN and infinity too.
  if (!(host_outage_rate_per_hour >= 0.0 &&
        host_outage_rate_per_hour <= kMaxHostOutageRatePerHour)) {
    throw std::invalid_argument{
        "FaultPlanOptions: host_outage_rate_per_hour must be in [0, 3.6e6] "
        "(one outage per virtual millisecond on average)"};
  }
  if (!(std::isfinite(straggler_multiplier) && straggler_multiplier >= 1.0)) {
    throw std::invalid_argument{
        "FaultPlanOptions: straggler_multiplier must be finite and >= 1"};
  }
  if (bus_extra_delay < Duration::zero() ||
      host_downtime < Duration::zero()) {
    throw std::invalid_argument{"FaultPlanOptions: negative duration"};
  }
}

FaultPlan::FaultPlan(FaultPlanOptions options, common::Rng rng)
    : options_(options),
      active_(options.any_enabled()),
      // Fixed fork order -- reordering these lines would silently change
      // every faulted digest.
      bus_rng_(rng.fork()),
      provision_rng_(rng.fork()),
      straggler_rng_(rng.fork()),
      crash_rng_(rng.fork()),
      outage_rng_(rng.fork()) {
  options_.validate();
}

FaultPlan::BusFault FaultPlan::next_bus_fault() {
  if (!active_) return BusFault::None;
  // One uniform draw per message regardless of the rates, so scaling one
  // rate keeps lower-rate fault sets as subsets of higher-rate ones (the
  // coupling the monotone-degradation property test leans on).
  // Per-class member streams (here and below) are deliberate shared draws:
  // each fault class consults its stream in a fixed serial order, and the
  // race sweep runs fault scenarios.  lint:allow annotations mark the accepted
  // tie-order hazard instead of hiding it.
  const double u = bus_rng_.uniform();  // lint:allow(shared-rng-draw)
  if (u < options_.bus_drop_rate) {
    ++counters_.bus_drops;
    return BusFault::Drop;
  }
  if (u < options_.bus_drop_rate + options_.bus_duplicate_rate) {
    ++counters_.bus_duplicates;
    return BusFault::Duplicate;
  }
  if (u < options_.bus_drop_rate + options_.bus_duplicate_rate +
              options_.bus_delay_rate) {
    ++counters_.bus_delays;
    return BusFault::Delay;
  }
  return BusFault::None;
}

bool FaultPlan::next_provision_failure() {
  if (!active_) return false;
  const bool fail =  // lint:allow(shared-rng-draw)
      provision_rng_.uniform() < options_.provision_failure_rate;
  if (fail) ++counters_.provision_failures;
  return fail;
}

double FaultPlan::next_provision_multiplier() {
  if (!active_) return 1.0;
  if (straggler_rng_.uniform() < options_.straggler_rate) {  // lint:allow(shared-rng-draw)
    ++counters_.stragglers;
    return options_.straggler_multiplier;
  }
  return 1.0;
}

bool FaultPlan::next_worker_crash() {
  if (!active_) return false;
  const bool crash =  // lint:allow(shared-rng-draw)
      crash_rng_.uniform() < options_.worker_crash_rate;
  if (crash) ++counters_.worker_crashes;
  return crash;
}

double FaultPlan::next_crash_point() {
  // Strictly inside the execution interval: never exactly at start or end,
  // so the crash event unambiguously precedes the completion event.
  return 0.05 + 0.9 * crash_rng_.uniform();  // lint:allow(shared-rng-draw)
}

std::pair<Duration, std::size_t> FaultPlan::next_host_outage(
    std::size_t host_count) {
  if (host_count == 0) {
    throw std::invalid_argument{"FaultPlan::next_host_outage: no hosts"};
  }
  const double mean_seconds = 3600.0 / options_.host_outage_rate_per_hour;
  const Duration delay = Duration::from_seconds(
      outage_rng_.exponential(mean_seconds));  // lint:allow(shared-rng-draw)
  const std::size_t host = static_cast<std::size_t>(
      outage_rng_.uniform_int(host_count));  // lint:allow(shared-rng-draw)
  return {delay, host};
}

}  // namespace xanadu::sim
