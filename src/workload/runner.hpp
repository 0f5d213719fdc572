#pragma once

// Experiment runner: drives a DispatchManager with an arrival schedule and
// collects per-request results plus the resource-ledger delta over the run.
// This is the shared harness behind the benchmark binaries.

#include <cstdint>
#include <vector>

#include "core/dispatch_manager.hpp"
#include "metrics/cost.hpp"
#include "metrics/streaming.hpp"
#include "platform/request.hpp"
#include "workload/arrivals.hpp"

namespace xanadu::workload {

struct RunOutcome {
  /// Per-request results in submission order.  Empty when the run was
  /// executed with RunOptions::retain_results = false -- the streamed
  /// aggregates below still carry everything the accessors need.
  std::vector<platform::RequestResult> results;
  /// Ledger delta over the run window (C_R quantities).
  cluster::ResourceLedger ledger_delta;

  /// Online aggregates folded during the run in submission order (the run
  /// harnesses always stream; `streamed` is false only for hand-built
  /// outcomes, e.g. in tests, where the accessors fall back to recomputing
  /// from `results`).
  metrics::RunStats stats;
  /// Completed-request overhead histogram (bounded memory; tail quantiles).
  metrics::LatencyHistogram histogram;
  /// Incremental trace digest -- byte-identical to
  /// metrics::trace_digest(results, dag) over the retained vector.
  std::uint64_t trace_digest = 0;
  bool streamed = false;

  /// Requests triggered (streamed count, or results.size()).
  [[nodiscard]] std::size_t total_count() const;
  /// Requests that failed over (result.failed) -- recovery exhausted, or
  /// stranded by a fault with recovery disabled.  Zero on fault-free runs.
  [[nodiscard]] std::size_t failed_count() const;
  [[nodiscard]] std::size_t completed_count() const {
    return total_count() - failed_count();
  }
  /// completed / triggered, in [0, 1]; 1.0 for an empty run.
  [[nodiscard]] double completion_rate() const;

  // Per-request aggregates over *completed* requests only (failed requests
  // carry no meaningful per-request stats and would deflate the values).
  [[nodiscard]] double mean_overhead_ms() const;
  [[nodiscard]] double mean_end_to_end_ms() const;
  [[nodiscard]] double mean_cold_starts() const;
  [[nodiscard]] double mean_workers_per_request() const;
  /// Mean speculation misses over *all* requests: a miss wastes real
  /// provisioning work whether or not the request later fails.
  [[nodiscard]] double mean_missed_nodes() const;
  /// Fraction of completed requests whose overhead exceeds `threshold`.
  /// Exact when `threshold` matches the streamed stats threshold or when
  /// results are retained; otherwise a histogram estimate (within one bin).
  [[nodiscard]] double fraction_over(sim::Duration threshold) const;
};

struct RunOptions {
  /// Flush warm workers before every request, forcing fully cold conditions
  /// (the paper's "cold start condition" trials).
  bool force_cold_each_request = false;
  /// Let pending events (keep-alive reclamation etc.) drain after the last
  /// request completes.  When false the simulator stops once every request
  /// has completed, leaving warm workers alive.
  bool drain_after_last = false;
  /// Tear down all warm workers once the run finishes, before computing the
  /// ledger delta, so idle costs accrued by still-warm workers are charged
  /// to this run.  Keeps C_R comparisons across modes exact.
  bool flush_at_end = true;
  /// Fault-injection runs: when requests strand (fault injected, recovery
  /// disabled), fail them cleanly and record failed results instead of
  /// throwing.  Every request then yields exactly one result, completed or
  /// failed.
  bool allow_incomplete = false;
  /// With allow_incomplete: virtual time past the last arrival after which
  /// still-incomplete requests count as stranded.  Bounds the run -- a
  /// stranded request keeps the recurring host-outage event alive, so the
  /// event queue alone never drains.
  sim::Duration stall_horizon = sim::Duration::from_minutes(10);
  /// Keep every RequestResult in RunOutcome::results (and per_source).  Turn
  /// off for macro-scale runs: aggregates, digest, histogram, ring and spill
  /// still stream, but peak RSS stays flat in run length.
  bool retain_results = true;
  /// Streaming consumer configuration (ring capacity, histogram shape,
  /// fraction-over threshold, optional CSV spill).
  metrics::StreamOptions stream;
  /// OS threads for the conservative parallel drain (run_sharded_mix).
  /// 1 = today's exact sequential path on the calling thread; higher values
  /// drain shards concurrently but never change any result or digest --
  /// thread count buys wall-clock time only.  Ignored by the unsharded
  /// runners, which are single-simulator by construction.
  unsigned threads = 1;
};

/// Submits one request per entry of `schedule` (relative to the current
/// virtual time) and runs the simulation until all requests complete.  The
/// schedule is read in place, one arrival queued at a time (see
/// sim::Simulator::attach_arrivals), so the run's event queue holds the
/// requests in flight rather than the whole schedule.  Defined with the
/// multi-source runner in traffic_mix.cpp.
[[nodiscard]] RunOutcome run_schedule(core::DispatchManager& manager,
                                      common::WorkflowId workflow,
                                      const ArrivalSchedule& schedule,
                                      const RunOptions& options = {});

/// Convenience: `count` back-to-back requests, each under forced-cold
/// conditions (the 10-cold-trigger trials used throughout Section 5).
[[nodiscard]] RunOutcome run_cold_trials(core::DispatchManager& manager,
                                         common::WorkflowId workflow,
                                         std::size_t count,
                                         sim::Duration spacing =
                                             sim::Duration::from_seconds(1));

}  // namespace xanadu::workload
