#pragma once

// Per-request execution records produced by the platform engine.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_vector.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::workflow {
class WorkflowDag;
}  // namespace xanadu::workflow

namespace xanadu::platform {

using common::EventId;
using common::NodeId;
using common::RequestId;
using common::WorkerId;
using common::WorkflowId;

/// Lifecycle of one DAG node within one request.
enum class NodeStatus {
  /// Waiting for parents to resolve.
  Pending,
  /// All parents resolved with at least one taken edge; dispatch in flight.
  Triggered,
  /// A worker is running the function body.
  Executing,
  /// Function body finished.
  Completed,
  /// Every in-edge was resolved as not-taken (an XOR sibling lost).
  Skipped,
};

/// Timing record of one node within one request.
struct NodeRecord {
  NodeStatus status = NodeStatus::Pending;
  /// Parents whose outcome (taken / not-taken) is still unknown.
  std::size_t unresolved_parents = 0;
  /// True once any in-edge resolved as taken.
  bool any_taken_edge = false;
  /// Latest (parent completion + edge delay) over taken in-edges; the node
  /// triggers at this time once all parents are resolved (m:1 barrier).
  sim::TimePoint pending_trigger_time{};

  sim::TimePoint trigger_time{};
  sim::TimePoint exec_start{};
  sim::TimePoint exec_end{};
  /// Actual sampled execution duration (with jitter).
  sim::Duration exec_duration = sim::Duration::zero();
  /// True when no ready worker existed at dispatch time (the request had to
  /// wait -- fully or partially -- for provisioning).
  bool cold = false;
  /// How long the dispatched request waited for a worker to become ready.
  sim::Duration provision_wait = sim::Duration::zero();
  WorkerId worker{};
  /// Times this node was re-dispatched after its worker died (provisioning
  /// failure, crash, host outage).  Zero on every fault-free run.
  std::size_t retries = 0;
  /// The pending completion event while Executing; cancelled if the worker
  /// crashes or its host goes down mid-execution.
  EventId finish_event{};
  /// Parents whose taken edges invoked this node -- the simulation analogue
  /// of the parent-id request header Xanadu's patched HTTP library injects
  /// for implicit-chain detection (paper Section 3.3).  Inline room for
  /// three parents, so building and copying the records of a request whose
  /// fan-in stays within that never touches the heap.
  common::InlineVector<NodeId, 3> invoked_by;
};

/// Counters describing what speculation did for a request.  Filled by the
/// active ProvisionPolicy (zeroed under baseline policies).
struct SpeculationStats {
  /// Nodes on the predicted most-likely path at request start.
  std::size_t predicted_nodes = 0;
  /// Predicted nodes that ended up skipped (prediction misses; Table 1's
  /// "#function miss per request").
  std::size_t missed_nodes = 0;
  /// Executed nodes that were not on the predicted path (paid a cold start
  /// despite speculation).
  std::size_t unpredicted_executions = 0;
  /// Planned proactive deployments cancelled after a miss was detected.
  std::size_t cancelled_deployments = 0;
  /// Speculatively provisioned workers discarded without ever executing.
  std::size_t wasted_workers = 0;
};

/// Final result of one workflow request.
struct RequestResult {
  RequestId id{};
  WorkflowId workflow{};
  sim::TimePoint submitted{};
  sim::TimePoint completed{};
  /// Wall-clock duration of the whole request (the paper's R_F).
  sim::Duration end_to_end = sim::Duration::zero();
  /// Execution time of the slowest executed control-flow branch
  /// (sum of r_i along the critical path).
  sim::Duration critical_path_exec = sim::Duration::zero();
  /// The paper's C_D = R_F - critical_path_exec (Equation 1).
  sim::Duration overhead = sim::Duration::zero();
  std::size_t executed_nodes = 0;
  std::size_t skipped_nodes = 0;
  std::size_t cold_starts = 0;
  /// Workers whose provisioning was attributed to this request (on-trigger
  /// plus speculative prewarms issued on its behalf).
  std::size_t workers_provisioned = 0;
  /// True when the request was abandoned after exhausting fault recovery (or
  /// immediately, with recovery disabled).  `completed` is then the failure
  /// time; overhead/critical-path fields are meaningless and left zero.
  bool failed = false;
  /// Human-readable reason, e.g. "node 3: provision retries exhausted".
  std::string failure_reason;
  SpeculationStats speculation;
  /// Indexed by NodeId value; same order as the workflow's nodes.
  std::vector<NodeRecord> node_records;
};

using CompletionCallback = std::function<void(const RequestResult&)>;

/// One planned prewarm of a request: prewarm `node` when the event key
/// `key`, reserved when the plan was made, comes up.
struct ScheduledPrewarm {
  sim::EventKey key;
  NodeId node{};
};

/// Base of a policy's per-request state, which the request's context owns.
/// The platform layer cannot name the policy's types.
struct PolicyRequestState {
  virtual ~PolicyRequestState() = default;
};

/// Live state of one in-flight request.  Owned by the engine, which alone
/// reads and writes it (fault recovery included); the warm pool and the
/// provision pipeline never see a request, only opaque (RequestId, NodeId)
/// waiters.
///
/// The engine recycles contexts: reset_for_reuse() empties the vectors
/// below but keeps their capacity, and leaves the policy's state in place,
/// so a recycled context serves a request no larger than its largest one
/// without touching the heap.
struct RequestContext {
  RequestContext() = default;
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  RequestId id{};
  WorkflowId workflow{};
  const workflow::WorkflowDag* dag = nullptr;
  sim::TimePoint submitted{};
  /// Indexed by NodeId value.
  std::vector<NodeRecord> nodes;
  /// Nodes not yet Completed or Skipped.
  std::size_t outstanding = 0;
  std::size_t cold_starts = 0;
  std::size_t workers_provisioned = 0;
  SpeculationStats speculation;
  common::Rng rng;
  CompletionCallback on_complete;
  /// The attached policy's per-request state, null under policies that keep
  /// none.  The policy makes it for the context's first request and resets
  /// it at each later submission; it is freed with the context.
  std::unique_ptr<PolicyRequestState> policy_state;
  /// Planned prewarms (PlatformEngine::schedule_prewarms) not yet fired:
  /// those from `next_prewarm` on, in key order.  Only the one at
  /// `next_prewarm` is queued, as `prewarm_event`; firing, it queues the
  /// next.
  std::vector<ScheduledPrewarm> prewarms;
  std::size_t next_prewarm = 0;
  EventId prewarm_event{};

  /// Returns the context to a fresh state for the engine's context pool;
  /// `rng` and `policy_state` are set at the next submission.
  void reset_for_reuse() {
    id = RequestId{};
    workflow = WorkflowId{};
    dag = nullptr;
    submitted = sim::TimePoint{};
    nodes.clear();
    outstanding = 0;
    cold_starts = 0;
    workers_provisioned = 0;
    speculation = SpeculationStats{};
    on_complete = nullptr;
    prewarms.clear();
    next_prewarm = 0;
    prewarm_event = EventId{};
  }
};

/// Engine-wide counters for the fault-recovery machinery (zero on fault-free
/// runs).  Distinct from sim::FaultCounters, which counts *injected* faults:
/// these count what the engine did about them.
struct RecoveryStats {
  /// Daemon provisioning commands republished after an ack timeout.
  std::uint64_t command_retries = 0;
  /// Sandbox builds abandoned: injected build failures plus commands whose
  /// retries were exhausted (daemon unreachable).
  std::uint64_t builds_abandoned = 0;
  /// Node re-dispatches after a worker died or capacity vanished.
  std::uint64_t node_retries = 0;
  /// Requests failed over cleanly after exhausting recovery.
  std::uint64_t requests_failed = 0;
  /// Busy workers whose request was failed mid-execution, reclaimed into the
  /// warm pool when their (discarded) execution finished.
  std::uint64_t orphans_reaped = 0;
  /// Workers torn down by host outages.
  std::uint64_t outage_worker_kills = 0;
};

}  // namespace xanadu::platform
