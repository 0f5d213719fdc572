#include "workload/runner.hpp"

namespace xanadu::workload {

// Accessor dispatch: outcomes produced by the run harnesses carry streamed
// aggregates (streamed = true) and answer from RunStats -- results may be
// empty under retain_results = false.  Hand-built outcomes (tests, ad-hoc
// tooling) recompute from the retained vector, exactly as before streaming.
// The two paths fold the same doubles in the same order, so they agree
// bit-for-bit (streaming_metrics_test pins this).

std::size_t RunOutcome::total_count() const {
  return streamed ? static_cast<std::size_t>(stats.total) : results.size();
}

std::size_t RunOutcome::failed_count() const {
  if (streamed) return static_cast<std::size_t>(stats.failed);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (r.failed) ++failed;
  }
  return failed;
}

double RunOutcome::completion_rate() const {
  if (streamed) return stats.completion_rate();
  if (results.empty()) return 1.0;
  return static_cast<double>(completed_count()) /
         static_cast<double>(results.size());
}

// The per-request aggregates (mean_overhead_ms, mean_end_to_end_ms,
// mean_cold_starts, mean_workers_per_request, fraction_over) skip failed
// requests -- denominator = completed_count():  a failed request has no
// meaningful overhead or critical path, and mixing its zeros in would make
// failure look like speedup (or deflate tail/cold-start stats on
// fault-injected runs).  mean_missed_nodes deliberately keeps the full
// denominator: a speculation miss wastes real provisioning work whether or
// not the request later fails, so C_D-style waste accounting must not
// shrink when requests fail.

double RunOutcome::mean_overhead_ms() const {
  if (streamed) return stats.mean_overhead_ms();
  if (completed_count() == 0) return 0.0;
  double total = 0.0;
  for (const auto& r : results) {
    if (!r.failed) total += r.overhead.millis();
  }
  return total / static_cast<double>(completed_count());
}

double RunOutcome::mean_end_to_end_ms() const {
  if (streamed) return stats.mean_end_to_end_ms();
  if (completed_count() == 0) return 0.0;
  double total = 0.0;
  for (const auto& r : results) {
    if (!r.failed) total += r.end_to_end.millis();
  }
  return total / static_cast<double>(completed_count());
}

double RunOutcome::mean_cold_starts() const {
  if (streamed) return stats.mean_cold_starts();
  if (completed_count() == 0) return 0.0;
  double total = 0.0;
  for (const auto& r : results) {
    if (!r.failed) total += static_cast<double>(r.cold_starts);
  }
  return total / static_cast<double>(completed_count());
}

double RunOutcome::mean_workers_per_request() const {
  if (streamed) return stats.mean_workers_per_request();
  if (completed_count() == 0) return 0.0;
  double total = 0.0;
  for (const auto& r : results) {
    if (!r.failed) total += static_cast<double>(r.workers_provisioned);
  }
  return total / static_cast<double>(completed_count());
}

double RunOutcome::mean_missed_nodes() const {
  if (streamed) return stats.mean_missed_nodes();
  if (results.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : results) {
    total += static_cast<double>(r.speculation.missed_nodes);
  }
  return total / static_cast<double>(results.size());
}

double RunOutcome::fraction_over(sim::Duration threshold) const {
  if (streamed) {
    // Exact streamed counter when the threshold matches the one the run was
    // folded against; otherwise recompute from retained results, or fall
    // back to the histogram estimate when retention was off.
    if (threshold == stats.threshold) return stats.fraction_over_threshold();
    if (results.empty() && histogram.count() > 0) {
      return histogram.fraction_above(threshold.millis());
    }
  }
  if (completed_count() == 0) return 0.0;
  std::size_t over = 0;
  for (const auto& r : results) {
    if (!r.failed && r.overhead > threshold) ++over;
  }
  return static_cast<double>(over) / static_cast<double>(completed_count());
}

RunOutcome run_cold_trials(core::DispatchManager& manager,
                           common::WorkflowId workflow, std::size_t count,
                           sim::Duration spacing) {
  // Strictly sequential: each trial starts from a fully cold platform and
  // runs to completion before the next begins (requests never overlap, no
  // matter how long the chain executes).
  RunOutcome outcome;
  outcome.results.reserve(count);
  metrics::StreamingTrace stream;
  stream.add_source(manager.engine().dag(workflow), "");
  const cluster::ResourceLedger before = manager.ledger();
  for (std::size_t i = 0; i < count; ++i) {
    manager.force_cold_start();
    outcome.results.push_back(manager.invoke(workflow));
    stream.consume(0, outcome.results.back());
    manager.idle_for(spacing);
  }
  manager.force_cold_start();  // Flush residual idle costs into the ledger.
  outcome.ledger_delta = manager.ledger() - before;
  stream.finish();
  outcome.stats = stream.stats();
  outcome.histogram = stream.histogram();
  outcome.trace_digest = stream.digest();
  outcome.streamed = true;
  return outcome;
}

}  // namespace xanadu::workload
