#pragma once

// Seed-deterministic fault injection.
//
// A FaultPlan is the single decision oracle for every injected fault in a
// run: message-bus faults (drop / duplicate / extra delay), worker and host
// faults (provisioning failure, worker crash mid-execution, host outage),
// and slow-sandbox stragglers (a provisioning-latency multiplier).  Each
// fault class draws from its own forked common::Rng stream, so
//
//   * the same seed and the same FaultPlanOptions reproduce the same fault
//     schedule event-for-event (the PR 1 determinism contract extends over
//     faulted runs: identical seed + plan => identical trace digest), and
//   * changing one class's rate leaves the other classes' draw sequences
//     untouched, which keeps ablation sweeps comparable across rates.
//
// The plan does not know *where* faults land -- it is consulted at each
// decision point (a bus publish, a sandbox build, an execution start) by the
// component owning that decision point, and simply answers "fault here?".
// Because the simulation itself is deterministic, the sequence of decision
// points -- and therefore the sequence of answers -- is reproducible.

#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

/// Per-class fault probabilities and shapes.  All rates default to zero: a
/// default-constructed plan injects nothing and costs nothing.
struct FaultPlanOptions {
  // -- Message-bus faults (per published message) ---------------------------
  /// P(message silently lost; no subscriber ever sees it).
  double bus_drop_rate = 0.0;
  /// P(message delivered twice, back to back, in offset order).
  double bus_duplicate_rate = 0.0;
  /// P(message held back by `bus_extra_delay` before delivery).
  double bus_delay_rate = 0.0;
  /// Extra one-way latency applied to delayed messages.
  Duration bus_extra_delay = Duration::from_millis(50);

  // -- Worker / host faults -------------------------------------------------
  /// P(a sandbox build fails at the end of its provisioning latency).
  double provision_failure_rate = 0.0;
  /// P(a worker crashes partway through executing a request).
  double worker_crash_rate = 0.0;
  /// Host outages per simulated hour per cluster (0 = never, at most 3.6e6:
  /// one per virtual millisecond).  Outage times are exponentially
  /// distributed; each outage kills every worker on one uniformly drawn host
  /// and takes the host offline for `host_downtime`.
  double host_outage_rate_per_hour = 0.0;
  Duration host_downtime = Duration::from_seconds(30);

  // -- Stragglers -----------------------------------------------------------
  /// P(a sandbox build is a straggler and takes `straggler_multiplier`x the
  /// sampled provisioning latency).
  double straggler_rate = 0.0;
  double straggler_multiplier = 4.0;

  /// True when any fault class can fire; lets hot paths skip consults.
  [[nodiscard]] bool any_enabled() const;
  /// Throws std::invalid_argument on out-of-range rates or multipliers.
  void validate() const;
};

/// Running totals of faults injected, by class.  Snapshot-and-diff friendly
/// (all fields are plain counters).
struct FaultCounters {
  std::uint64_t bus_drops = 0;
  std::uint64_t bus_duplicates = 0;
  std::uint64_t bus_delays = 0;
  std::uint64_t provision_failures = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t host_outages = 0;
  std::uint64_t stragglers = 0;

  [[nodiscard]] std::uint64_t total() const {
    return bus_drops + bus_duplicates + bus_delays + provision_failures +
           worker_crashes + host_outages + stragglers;
  }
};

class FaultPlan {
 public:
  /// Inert plan: active() is false and every consult answers "no fault".
  FaultPlan() = default;

  /// Seeded plan.  Forks one child stream per fault class from `rng` in a
  /// fixed order, so two plans built from equal (options, rng) pairs answer
  /// identically forever.
  FaultPlan(FaultPlanOptions options, common::Rng rng);

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const FaultPlanOptions& options() const { return options_; }
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }

  /// What happens to one published bus message.
  enum class BusFault { None, Drop, Duplicate, Delay };
  [[nodiscard]] BusFault next_bus_fault();

  /// Does this sandbox build fail at the end of its latency?
  [[nodiscard]] bool next_provision_failure();

  /// Provisioning-latency multiplier for one sandbox build (1.0, or the
  /// straggler multiplier).
  [[nodiscard]] double next_provision_multiplier();

  /// Does this execution crash its worker partway through?
  [[nodiscard]] bool next_worker_crash();
  /// Fraction of the execution duration after which the crash fires, in
  /// (0, 1).  Only consulted after next_worker_crash() returned true.
  [[nodiscard]] double next_crash_point();

  /// Delay until the next host outage and the index of the victim host
  /// (uniform over `host_count`).  Only meaningful when
  /// host_outage_rate_per_hour > 0 -- callers must not consult otherwise.
  [[nodiscard]] std::pair<Duration, std::size_t> next_host_outage(
      std::size_t host_count);

  /// Records an outage actually applied (the draw above schedules it; the
  /// component fires it later and may skip it if the run ended first).
  void count_host_outage() { ++counters_.host_outages; }

 private:
  FaultPlanOptions options_;
  bool active_ = false;
  FaultCounters counters_;
  // One independent stream per class (fixed fork order; see constructor).
  common::Rng bus_rng_;
  common::Rng provision_rng_;
  common::Rng straggler_rng_;
  common::Rng crash_rng_;
  common::Rng outage_rng_;
};

}  // namespace xanadu::sim
