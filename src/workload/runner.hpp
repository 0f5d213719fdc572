#pragma once

// Experiment runner: drives a DispatchManager with an arrival schedule and
// returns the run's outcome: aggregates folded from every request as it
// completes, plus the resource-ledger delta over the run.  This is the
// shared harness behind the benchmark binaries.
//
// There is one outcome path.  Every run folds each result, in submission
// order, into a metrics::StreamingTrace, and every RunOutcome accessor reads
// the folded RunStats.  Retaining the results (RunOptions::retain_results)
// only adds a sink of that fold, which appends each folded result to
// RunOutcome::results; nothing is recomputed from it.

#include <cstdint>
#include <vector>

#include "core/dispatch_manager.hpp"
#include "metrics/cost.hpp"
#include "metrics/streaming.hpp"
#include "platform/request.hpp"
#include "workload/arrivals.hpp"

namespace xanadu::workload {

struct RunOutcome {
  /// Per-request results in submission order, appended by the run's fold as
  /// each one is folded.  Empty when the run was executed with
  /// RunOptions::retain_results = false; the accessors below never read it.
  std::vector<platform::RequestResult> results;
  /// Ledger delta over the run window (C_R quantities).
  cluster::ResourceLedger ledger_delta;

  /// Online aggregates folded during the run in submission order.
  metrics::RunStats stats;
  /// Completed-request overhead histogram (bounded memory; tail quantiles).
  metrics::LatencyHistogram histogram;
  /// Incremental trace digest -- byte-identical to
  /// metrics::trace_digest(results, dag) over the retained vector.
  std::uint64_t trace_digest = 0;

  /// Requests triggered.
  [[nodiscard]] std::size_t total_count() const {
    return static_cast<std::size_t>(stats.total);
  }
  /// Requests that failed over (result.failed) -- recovery exhausted, or
  /// stranded by a fault with recovery disabled.  Zero on fault-free runs.
  [[nodiscard]] std::size_t failed_count() const {
    return static_cast<std::size_t>(stats.failed);
  }
  [[nodiscard]] std::size_t completed_count() const {
    return total_count() - failed_count();
  }
  /// completed / triggered, in [0, 1]; 1.0 for an empty run.
  [[nodiscard]] double completion_rate() const {
    return stats.completion_rate();
  }

  // Per-request aggregates over *completed* requests only: a failed request
  // has no meaningful overhead or critical path, and mixing its zeros in
  // would make failure look like speedup.  0 when nothing completed.
  [[nodiscard]] double mean_overhead_ms() const {
    return stats.mean_overhead_ms();
  }
  [[nodiscard]] double mean_end_to_end_ms() const {
    return stats.mean_end_to_end_ms();
  }
  [[nodiscard]] double mean_cold_starts() const {
    return stats.mean_cold_starts();
  }
  [[nodiscard]] double mean_workers_per_request() const {
    return stats.mean_workers_per_request();
  }
  /// Mean speculation misses over *all* requests: a miss wastes real
  /// provisioning work whether or not the request later fails.
  [[nodiscard]] double mean_missed_nodes() const {
    return stats.mean_missed_nodes();
  }
  /// Fraction of completed requests whose overhead exceeds `threshold`.
  /// Exact when `threshold` is the run's StreamOptions::over_threshold;
  /// otherwise the histogram's estimate: exact to within one bin inside the
  /// bin range, exactly 0 at or above the largest recorded overhead, and an
  /// upper bound for thresholds between the last bin edge and that maximum.
  /// A caller that reports some other threshold sets over_threshold to it.
  [[nodiscard]] double fraction_over(sim::Duration threshold) const {
    if (threshold == stats.threshold) return stats.fraction_over_threshold();
    return histogram.fraction_above(threshold.millis());
  }
};

struct RunOptions {
  /// Flush warm workers before every request, forcing fully cold conditions
  /// (the paper's "cold start condition" trials).
  bool force_cold_each_request = false;
  /// Let pending events (keep-alive reclamation etc.) drain after the last
  /// request completes (after stranded requests fail, under
  /// allow_incomplete).  When false the simulator stops at the last
  /// completion, leaving warm workers alive.
  bool drain_after_last = false;
  /// Tear down all warm workers once the run finishes, before computing the
  /// ledger delta, so idle costs accrued by still-warm workers are charged
  /// to this run.  Keeps C_R comparisons across modes exact.
  bool flush_at_end = true;
  /// Fault-injection runs: when requests strand (fault injected, recovery
  /// disabled), fail them cleanly and record failed results instead of
  /// throwing.  Every request then yields exactly one result, completed or
  /// failed.  A request still incomplete 10 virtual minutes after the last
  /// arrival (the stall horizon) counts as stranded and fails at exactly
  /// that time.
  bool allow_incomplete = false;
  /// Keep every RequestResult in RunOutcome::results (and, for
  /// run_mixed_schedule, in each per_source lane) as the fold passes it.
  /// Turn off for macro-scale runs: aggregates, digest and histogram are
  /// the same either way, but peak RSS stays flat in run length.
  bool retain_results = true;
  /// Streaming consumer configuration (histogram shape, fraction-over
  /// threshold).
  metrics::StreamOptions stream;
  /// OS threads that run_sharded_mix spreads its shards over.  1 = the
  /// sequential path on the calling thread; higher values run shards
  /// concurrently but never change any result or digest -- thread count
  /// buys wall-clock time only.  Ignored by the unsharded runners, which
  /// are single-simulator by construction.
  unsigned threads = 1;
};

/// Submits one request per entry of `schedule` (relative to the current
/// virtual time) and runs the simulation until all requests complete.  The
/// schedule is read in place, and only the next timestamp's arrivals are
/// queued, each under the key it would have had queued up front (see
/// sim::Simulator::reserve_key), so the run's event queue holds the
/// requests in flight rather than the whole schedule.  A schedule that is
/// unsorted or starts before 0 throws std::invalid_argument before the run
/// starts.
///
/// Stop point: every workload run stops driving right after its last
/// completion -- the event that completes it returns, and nothing later
/// fires -- so the clock rests there, and flush_at_end charges idle time to
/// still-warm workers up to exactly that moment.  Under allow_incomplete a
/// run whose requests strand stops at its stall horizon instead, even when
/// its event queue empties before then, and an empty run fires only the
/// events due at its start.  drain_after_last then drains the queue.
/// Defined with the other runners, which share its lifecycle, in
/// traffic_mix.cpp.
[[nodiscard]] RunOutcome run_schedule(core::DispatchManager& manager,
                                      common::WorkflowId workflow,
                                      const ArrivalSchedule& schedule,
                                      const RunOptions& options = {});

/// Convenience: `count` back-to-back requests, each under forced-cold
/// conditions and 1 s of idle time apart (the 10-cold-trigger trials used
/// throughout Section 5).
[[nodiscard]] RunOutcome run_cold_trials(core::DispatchManager& manager,
                                         common::WorkflowId workflow,
                                         std::size_t count);

}  // namespace xanadu::workload
