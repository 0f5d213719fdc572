#include "workload/runner.hpp"

namespace xanadu::workload {

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
  return outcome;
}

}  // namespace xanadu::workload
