#pragma once

// PlatformEngine: executes workflow DAG requests on the simulated cluster.
//
// The engine owns the request lifecycle every platform shares:
//   * request ingestion and per-node dependency tracking (1:1, 1:m multicast,
//     XOR cast, m:1 barrier semantics -- paper Figure 2),
//   * worker acquisition: reuse a warm worker, attach to an in-flight
//     provision, or start a cold provision on trigger,
//   * per-request timing records and the C_D computation of Equation 1.
//
// The warm pool and provisioning mechanics behind those decisions live in two
// subsystems that never see a request (see ARCHITECTURE.md "Engine
// decomposition"):
//   * WarmPoolManager    -- warm pools, keep-alive timers, eviction, rebind,
//   * ProvisionPipeline  -- PendingProvision slots, daemon commands/acks/
//                           retries, redirects, the live-worker throttle.
// The engine hands the pipeline two callbacks; neither subsystem reaches into
// the other's (or the engine's) private state.  Fault recovery -- node retry
// with backoff, mid-execution crashes, host outages, RecoveryStats -- is
// request-lifecycle code and lives in the engine itself (recovery.cpp).
//
// With the control bus on, the engine is the cluster's worker observer: every
// worker transition the cluster makes is published on the "workers" topic
// from that one place.
//
// A ProvisionPolicy hooks into the request lifecycle to prewarm workers
// ahead of triggers; Xanadu's speculative and JIT modes are policies.

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "platform/calibration.hpp"
#include "platform/message_bus.hpp"
#include "platform/policy.hpp"
#include "platform/provision_pipeline.hpp"
#include "platform/request.hpp"
#include "platform/warm_pool.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "workflow/dag.hpp"

namespace xanadu::platform {

/// One deployment of a request's provisioning plan: prewarm `node` after
/// `delay`.
struct PlannedPrewarm {
  NodeId node{};
  sim::Duration delay = sim::Duration::zero();
};

class PlatformEngine {
 public:
  /// The engine borrows the simulator and cluster; both must outlive it.
  /// `policy` may be nullptr (treated as NullPolicy).
  PlatformEngine(sim::Simulator& simulator, cluster::Cluster& cluster,
                 PlatformCalibration calibration, ProvisionPolicy* policy,
                 common::Rng rng);
  /// Removes the engine's worker observer from the cluster.
  ~PlatformEngine();

  PlatformEngine(const PlatformEngine&) = delete;
  PlatformEngine& operator=(const PlatformEngine&) = delete;

  /// Registers a workflow.  Each node is assigned a platform-wide FunctionId
  /// whose warm pool is shared across requests to the same workflow.
  WorkflowId register_workflow(workflow::WorkflowDag dag);

  /// Submits a request now.  Returns its id; `on_complete` fires (in virtual
  /// time) when the request finishes.
  RequestId submit(WorkflowId workflow, CompletionCallback on_complete);

  /// Convenience: submit, then run the simulator until idle, returning the
  /// request's result.  Only valid when no other request is in flight
  /// (enforced by XANADU_INVARIANT); concurrent traffic goes through
  /// submit() or workload::run_mixed_schedule.
  RequestResult run_one(WorkflowId workflow);

  // -- Introspection -------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const PlatformCalibration& calibration() const { return calib_; }
  [[nodiscard]] const workflow::WorkflowDag& dag(WorkflowId id) const;
  /// The function registered for `node` of `workflow`.  Inline: the
  /// request path asks about ten times per request.
  [[nodiscard]] FunctionId function_id(WorkflowId workflow, NodeId node) const {
    const RegisteredWorkflow* reg = workflows_.find(workflow);
    if (reg == nullptr || node.value() >= reg->node_functions.size()) {
      throw std::invalid_argument{
          "PlatformEngine::function_id: unknown workflow or node"};
    }
    return reg->node_functions[node.value()];
  }
  [[nodiscard]] sim::TimePoint now() const { return sim_.now(); }
  /// Warm (idle, ready) workers currently pooled for a function.
  [[nodiscard]] std::size_t warm_count(FunctionId fn) const {
    return warm_pool_.warm_count(fn);
  }
  /// True if a provisioning operation for `fn` is in flight.
  [[nodiscard]] bool provisioning_in_flight(FunctionId fn) const {
    return provisioning_count(fn) > 0;
  }
  /// In-flight provisioning operations covering `fn`: pending sandbox builds
  /// plus inbound warm-worker rebinds.  Policies that maintain pools deeper
  /// than one need the count, not just the flag.
  [[nodiscard]] std::size_t provisioning_count(FunctionId fn) const {
    return pipeline_.provision_count(fn) + warm_pool_.inbound_rebinds(fn);
  }
  /// The control bus, or nullptr when calibration().control_bus.enabled is
  /// false (provisioning commands then short-circuit the bus).
  [[nodiscard]] MessageBus* control_bus() { return bus_.get(); }
  /// The fault-injection oracle (inert unless calibration().faults enables a
  /// fault class).
  [[nodiscard]] const sim::FaultPlan& fault_plan() const { return fault_plan_; }
  /// What the recovery machinery did so far (all zero on fault-free runs).
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// Requests submitted but neither completed nor failed yet.
  [[nodiscard]] std::size_t inflight_request_count() const {
    return requests_.size();
  }
  /// Queued keep-alive timers: one for each warm pool that holds a worker,
  /// at most one per pool (see WarmPoolManager::keep_alive_event_count;
  /// the keep-alive cancellation regression tests lean on this).
  [[nodiscard]] std::size_t keep_alive_event_count() const {
    return warm_pool_.keep_alive_event_count();
  }

  /// Fails every in-flight request cleanly (result.failed = true), in
  /// request-id order.  Run harnesses call this when faulted runs strand
  /// requests with recovery disabled.  Returns the number failed.
  std::size_t fail_all_pending_requests(const std::string& reason);

  // -- Policy-facing operations -------------------------------------------

  /// Starts provisioning a worker for `node` of `ctx`'s workflow unless a
  /// warm worker or in-flight provision already covers it.  Returns true if
  /// a new provision was started.  Attributed to the request.
  bool prewarm(RequestContext& ctx, NodeId node);

  /// Starts one provisioning operation for `node` of `workflow` with no
  /// owning request (pool refill, horizon-schedule provisioning).  Unlike
  /// prewarm(), the coverage decision is the caller's: policies that keep
  /// pools deeper than one worker must be able to provision past existing
  /// coverage, so the only veto here is cluster placement failure.  The
  /// provisioning cost lands on the ledger but no request's
  /// workers_provisioned counter.  Returns true when a build was started.
  bool prewarm_function(WorkflowId workflow, NodeId node);

  /// Reclaims warm workers of `fn`, oldest first, until at most `target`
  /// remain pooled (the eviction half of a provision/evict schedule; target 0
  /// discards mis-deployed sandboxes after a prediction miss).  Returns the
  /// number of workers destroyed.
  std::size_t shrink_warm_pool(FunctionId fn, std::size_t target);

  /// Carries out a request's provisioning plan, in plan order: a zero
  /// delay prewarms now, and any other delay reserves the event key that
  /// scheduling prewarm(ctx, node) after it would take.  Only the earliest
  /// reserved prewarm is queued; when it fires it queues the next, so each
  /// fires where its own event would have, while the queue holds one per
  /// request.  Replaces any planned prewarms of `ctx` still unfired.  A
  /// policy cancels the plan once it no longer helps (a prewarm that fires
  /// after its request has finished is a no-op).
  void schedule_prewarms(RequestContext& ctx,
                         std::span<const PlannedPrewarm> plan);

  /// Drops `ctx`'s planned prewarms that have not fired, and returns how
  /// many there were.
  std::size_t cancel_prewarms(RequestContext& ctx);

  /// Aborts in-flight provisioning operations of `fn` that no request is
  /// waiting on (speculative deployments overtaken by a prediction miss).
  /// The partially-built sandboxes are destroyed; their provisioning CPU
  /// work is already sunk and stays on the ledger.  Returns the number of
  /// provisions aborted.
  std::size_t abort_unclaimed_provisions(FunctionId fn);

  /// Re-binds one idle warm worker of `from` to serve `to` (paper Section 7
  /// reuse extension).  Requires matching sandbox architecture: same kind
  /// and same memory allocation.  The rebind takes
  /// calibration().rebind_latency (code reload), during which the worker
  /// stays idle; it then joins `to`'s warm pool.  Returns false when no
  /// idle worker is available or the architectures differ.
  bool rebind_warm_worker(FunctionId from, FunctionId to);

  /// Redirects one unclaimed in-flight provisioning operation of `from` to
  /// `to` (same architecture required): the environment being built is
  /// generic until code load, so a sandbox under construction for a branch
  /// the workflow abandoned can finish construction for the branch actually
  /// taken.  Returns false when there is nothing redirectable or the
  /// architectures differ.
  bool redirect_provision(FunctionId from, FunctionId to);

  /// Tears down every warm worker on the platform (used between cold-start
  /// trials to force cold conditions without waiting for keep-alive).
  void flush_all_warm_workers();

  /// Registers race-detector probes for the engine and every subsystem
  /// ("engine.*", "warm_pool.*", "pipeline.*", "recovery.*", "bus.*",
  /// plus "engine.state_digest" below).  The registry is sampled by the
  /// simulator after each tie group fires so the race detector can name the
  /// first divergent subsystem.
  void register_probes(sim::ProbeRegistry& probes) const;

  /// FNV-1a digest of platform state the trace does not capture: exact
  /// warm-pool membership (which workers, in which order, per function) and
  /// the resource-ledger balances.  Races whose effects cancel out in the
  /// emitted trace -- two tied events swapping which worker each claims --
  /// still diverge here.  The race detector folds this into its divergence
  /// digest, and it is registered as a probe so mid-run divergence is
  /// localised to the first tie group that splits state.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// Immutable registration record of one DAG node's function.
  struct FunctionInfo {
    workflow::FunctionSpec spec;
    WorkflowId workflow{};
    NodeId node{};
  };

  struct RegisteredWorkflow {
    workflow::WorkflowDag dag;
    std::vector<FunctionId> node_functions;  // indexed by NodeId value
    /// Topological order and roots, computed once at registration: the
    /// completion and submission paths walk them per request, and
    /// recomputing either allocated a fresh vector per request.
    std::vector<NodeId> topo_order;
    std::vector<NodeId> roots;
  };

  // Request lifecycle.
  void trigger_node(RequestContext& ctx, NodeId node);
  void dispatch_node(RequestContext& ctx, NodeId node);
  void start_execution(RequestContext& ctx, NodeId node, WorkerId worker);
  void finish_execution(RequestContext& ctx, NodeId node);
  void resolve_child_edge(RequestContext& ctx, NodeId parent, NodeId child,
                          bool taken, sim::TimePoint trigger_time);
  void mark_skipped(RequestContext& ctx, NodeId node);
  void maybe_finish_request(RequestContext& ctx);
  /// Fails the request cleanly: result.failed is set and the completion
  /// callback fires now.  Executing workers finish their (discarded) bodies
  /// and are reaped back into the warm pool.
  void fail_request(RequestContext& ctx, std::string reason);
  /// Shared RequestResult header fields (identity, timing, counters).
  [[nodiscard]] RequestResult result_prologue(const RequestContext& ctx) const;

  // Subsystem glue (wired as callbacks at construction).
  ProvisionPipeline::Hooks pipeline_hooks();
  /// A completed build: finish provisioning, notify the policy, serve the
  /// first live waiter and re-dispatch the rest (or park the worker warm).
  void provision_ready(WorkerId worker, ProvisionWaiters waiters);
  /// Starts a provision for `fn` attributed to `ctx` (if non-null).
  PendingProvision* start_provision(FunctionId fn, RequestContext* ctx);
  /// Queues `ctx`'s next planned prewarm under its reserved key, if any is
  /// left.
  void queue_next_prewarm(RequestContext& ctx);
  /// The queued planned prewarm of `request` fires.
  void fire_prewarm(RequestId request);

  // Fault recovery (recovery.cpp).  Inert on fault-free runs: nothing here
  // executes unless the fault plan is active, so fault-free digests cannot
  // move.
  /// Re-dispatches `node` after its worker died or capacity vanished, with
  /// exponential backoff; fails the request once retries are exhausted.
  /// With recovery disabled the node simply strands.
  void retry_node(RequestContext& ctx, NodeId node, const char* cause);
  /// retry_node for every waiter whose request is still live.
  void retry_waiters(const ProvisionWaiters& waiters, const char* cause);
  /// Injected mid-execution worker crash: the sandbox dies, the node retries.
  void crash_execution(RequestContext& ctx, NodeId node);
  /// Draws the next outage from the plan and schedules it (one in flight at
  /// a time; rescheduled on fire only while requests are live).
  void maybe_schedule_host_outage();
  void apply_host_outage(std::size_t host_index);
  /// Outage teardown of one worker, whatever lifecycle stage it is in.
  void kill_worker_for_fault(WorkerId worker);
  /// The live request and node the Busy `worker` is running, or
  /// {nullptr, {}} for an orphan (its request already failed over).
  std::pair<RequestContext*, NodeId> find_executing(
      const cluster::Worker& worker);

  [[nodiscard]] sim::Duration dispatch_overhead();
  FunctionInfo& function_info(FunctionId fn);
  RequestContext* find_request(RequestId id) { return requests_.find(id); }
  /// Removes a finished request from the in-flight table and parks its
  /// context (emptied, capacity kept) in the pool for the next submit().
  void recycle_request(RequestId id);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  PlatformCalibration calib_;
  NullPolicy null_policy_;
  ProvisionPolicy* policy_;
  common::Rng rng_;
  std::unique_ptr<MessageBus> bus_;
  /// Interned worker-state topic (valid only when the bus is enabled).
  TopicId worker_state_topic_{};
  /// Inert unless calibration().faults enables a class; wired into the bus.
  /// Declared before the subsystems, which hold references to it.
  sim::FaultPlan fault_plan_;

  WarmPoolManager warm_pool_;
  /// What fault recovery did so far.  Declared before pipeline_, which
  /// borrows it.
  RecoveryStats recovery_stats_;
  /// True while a host-outage event is scheduled (one at a time).
  bool outage_pending_ = false;
  ProvisionPipeline pipeline_;

  /// Registrations are never removed, so these tables are dense; a
  /// request's `dag` points into workflows_, which never moves an entry.
  common::IdTable<WorkflowId, RegisteredWorkflow> workflows_;
  common::IdTable<FunctionId, FunctionInfo> functions_;
  /// In-flight requests.  Requests finish roughly in arrival order, so the
  /// window spans about as many ids as are in flight; a live
  /// RequestContext& survives later submissions.
  common::IdWindow<RequestId, RequestContext> requests_;
  /// Recycled contexts, each holding what its largest request needed.
  /// Bounded: steady-state size tracks the concurrency high-water mark,
  /// capped below; a context past the cap is freed, policy state included.
  std::vector<std::unique_ptr<RequestContext>> context_pool_;
  static constexpr std::size_t kContextPoolCap = 1024;
  /// Scratch for one step at a time, keeping its capacity: an XOR node's
  /// branch weights, then a finishing request's longest path per node.
  std::vector<double> scratch_;

  common::IdGenerator<WorkflowId> workflow_ids_;
  common::IdGenerator<FunctionId> function_ids_;
  common::IdGenerator<RequestId> request_ids_;
};

}  // namespace xanadu::platform
