#include "platform/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "platform/worker_state.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

using workflow::DispatchMode;
using workflow::Edge;
using workflow::Node;
using workflow::WorkflowDag;

// ---------------------------------------------------------------------------
// Construction and registration.
// ---------------------------------------------------------------------------

PlatformEngine::PlatformEngine(sim::Simulator& simulator,
                               cluster::Cluster& cluster,
                               PlatformCalibration calibration,
                               ProvisionPolicy* policy, common::Rng rng)
    : sim_(simulator),
      cluster_(cluster),
      calib_(std::move(calibration)),
      policy_(policy != nullptr ? policy : &null_policy_),
      rng_(rng),
      warm_pool_(sim_, cluster_, calib_),
      pipeline_(sim_, cluster_, calib_, fault_plan_, warm_pool_,
                recovery_stats_, pipeline_hooks()) {
  if (calib_.container_profile) {
    cluster_.catalog().set_profile(workflow::SandboxKind::Container,
                                   *calib_.container_profile);
  }
  if (calib_.control_bus.enabled) {
    MessageBus::Options bus_options;
    bus_options.latency = calib_.control_bus.latency;
    bus_options.jitter = calib_.control_bus.jitter;
    bus_ = std::make_unique<MessageBus>(sim_, bus_options, rng_.fork());
    worker_state_topic_ = bus_->intern(kWorkerStateTopic);
    pipeline_.attach_bus(*bus_, cluster_.host_count());
    // The one place a worker transition is announced: the cluster reports
    // each as it makes it, whoever asked for it.
    cluster_.set_worker_observer(
        [this](const cluster::Worker& worker, WorkerEventKind kind) {
          bus_->publish(worker_state_topic_,
                        WorkerEvent{kind, worker.id(), worker.function(),
                                    worker.host()});
        });
  }
  if (calib_.faults.any_enabled()) {
    // Forked only when faults are on, so fault-free runs keep the exact rng
    // stream (and digests) they had before the fault layer existed.  The
    // subsystems hold references to this member, so the re-seed is visible
    // to them.
    fault_plan_ = sim::FaultPlan(calib_.faults, rng_.fork());
    if (bus_ != nullptr) bus_->set_fault_plan(&fault_plan_);
  }
}

PlatformEngine::~PlatformEngine() {
  if (bus_ != nullptr) cluster_.set_worker_observer({});
}

// ---------------------------------------------------------------------------
// Request lifecycle.  (Registration, introspection, hook wiring and the
// policy-facing operations live in engine_ops.cpp.)
// ---------------------------------------------------------------------------

RequestId PlatformEngine::submit(WorkflowId workflow_id,
                                 CompletionCallback on_complete) {
  const RegisteredWorkflow* reg = workflows_.find(workflow_id);
  if (reg == nullptr) {
    throw std::invalid_argument{"PlatformEngine::submit: unknown workflow"};
  }
  const WorkflowDag& dag = reg->dag;

  // Reuse a pooled context (its vectors keep their capacity, so no heap
  // traffic) when one is available; ids are always fresh, so stale events
  // keyed on an old id can never resolve to a recycled context.
  std::unique_ptr<RequestContext> ctx;
  if (!context_pool_.empty()) {
    ctx = std::move(context_pool_.back());
    context_pool_.pop_back();
  } else {
    ctx = std::make_unique<RequestContext>();
  }
  ctx->id = request_ids_.next();
  ctx->workflow = workflow_id;
  ctx->dag = &dag;
  ctx->submitted = sim_.now();
  ctx->nodes.resize(dag.node_count());
  ctx->outstanding = dag.node_count();
  // Keyed on the request id so each request's stream is independent of how
  // many submissions (or other engine draws) preceded it.
  ctx->rng = rng_.fork_stream(ctx->id.value());
  ctx->on_complete = std::move(on_complete);
  for (const Node& node : dag.nodes()) {
    ctx->nodes[node.id.value()].unresolved_parents = node.parents.size();
  }

  RequestContext& ref = *ctx;
  requests_.insert(ref.id, std::move(ctx));

  maybe_schedule_host_outage();

  // The policy runs first so speculative deployment overlaps the first
  // function's own provisioning (paper Figure 10: the orchestrator invokes
  // the JIT deployer asynchronously while forwarding ready requests).
  policy_->on_request_submitted(*this, ref);

  for (const NodeId root : reg->roots) {
    NodeRecord& record = ref.nodes[root.value()];
    record.any_taken_edge = true;
    record.pending_trigger_time = sim_.now();
    trigger_node(ref, root);
  }
  return ref.id;
}

RequestResult PlatformEngine::run_one(WorkflowId workflow_id) {
  XANADU_INVARIANT(requests_.empty(),
                   "run_one: other requests are in flight; use submit() or "
                   "workload::run_mixed_schedule for concurrent traffic");
  RequestResult result;
  bool done = false;
  const RequestId id = submit(workflow_id, [&](const RequestResult& r) {
    result = r;
    done = true;
  });
  // Run only until the request completes: draining the whole queue would
  // also fire keep-alive reclamations scheduled minutes ahead, killing the
  // warm workers a subsequent request should be able to reuse.  Faulted runs
  // additionally get a virtual-time horizon: a stranded request keeps the
  // recurring host-outage event alive, so "queue empty" alone would never
  // be reached.
  const sim::TimePoint horizon = sim_.now() + sim::Duration::from_minutes(60);
  while (!done && sim_.pending() > 0) {
    if (fault_plan_.active() && sim_.now() >= horizon) break;
    sim_.run_until(sim_.now() + sim::Duration::from_millis(500));
  }
  if (!done && fault_plan_.active()) {
    // An injected fault stranded the request (recovery disabled, or no
    // recovery path exists); report a clean failure instead of throwing.
    if (RequestContext* live = find_request(id)) {
      fail_request(*live, "stranded by injected fault");
    }
  }
  if (!done) {
    throw std::logic_error{"PlatformEngine::run_one: request did not finish"};
  }
  return result;
}

void PlatformEngine::trigger_node(RequestContext& ctx, NodeId node) {
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Pending,
                   "trigger_node: node already triggered");
  record.status = NodeStatus::Triggered;
  record.trigger_time = sim_.now();
  policy_->on_node_triggered(*this, ctx, node);
  const RequestId request = ctx.id;
  sim_.schedule_after(
      dispatch_overhead(),
      [this, request, node] {
        if (RequestContext* live = find_request(request)) {
          dispatch_node(*live, node);
        }
      },
      "engine.dispatch");
}

void PlatformEngine::dispatch_node(RequestContext& ctx, NodeId node) {
  const FunctionId fn = function_id(ctx.workflow, node);
  NodeRecord& record = ctx.nodes[node.value()];

  if (const std::optional<WorkerId> warm = warm_pool_.acquire(fn)) {
    // Warm start: reuse the oldest idle worker.
    record.cold = false;
    start_execution(ctx, node, *warm);
    return;
  }

  if (!record.cold) {
    record.cold = true;
    ++ctx.cold_starts;
  }

  // Attach to an in-flight provision if one exists (a speculative or JIT
  // deployment already under way): the request waits only for the remainder
  // of the provisioning latency instead of a full cold start.
  if (pipeline_.has_provisions(fn)) {
    pipeline_.attach_waiter(fn, ctx.id, node);
    return;
  }

  PendingProvision* provision = start_provision(fn, &ctx);
  if (provision == nullptr) {
    if (fault_plan_.active()) {
      // Capacity loss is transient under host outages: back off and retry
      // instead of aborting the whole experiment.
      retry_node(ctx, node, "cluster out of capacity");
      return;
    }
    throw std::runtime_error{
        "PlatformEngine: cluster out of capacity provisioning '" +
        function_info(fn).spec.name + "'"};
  }
  provision->waiters.emplace_back(ctx.id, node);
}

PendingProvision* PlatformEngine::start_provision(FunctionId fn,
                                                  RequestContext* ctx) {
  PendingProvision* provision = pipeline_.start(fn, function_info(fn).spec);
  if (provision != nullptr && ctx != nullptr) ++ctx->workers_provisioned;
  return provision;
}

void PlatformEngine::provision_ready(WorkerId worker_id,
                                     ProvisionWaiters waiters) {
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  XANADU_INVARIANT(worker != nullptr,
                   "provision_ready: worker vanished before completion");
  cluster_.finish_provisioning(*worker, sim_.now());
  const FunctionId fn = worker->function();
  const FunctionInfo& info = function_info(fn);
  policy_->on_worker_ready(*this, info.workflow, info.node,
                           sim_.now() - worker->provision_start());

  // Serve the first still-live waiter; anything else re-enters dispatch.
  while (!waiters.empty()) {
    auto [request, node] = waiters.front();
    waiters.pop_front();
    RequestContext* ctx = find_request(request);
    if (ctx == nullptr) continue;
    // Daemon -> manager -> proxy handoff: the fresh worker idles briefly
    // before the waiting request reaches it.
    const RequestId request_id = request;
    const FunctionId fn_id = fn;
    sim_.schedule_after(calib_.worker_handoff, [this, request_id, node,
                                                worker_id, fn_id] {
      RequestContext* live = find_request(request_id);
      if (live == nullptr) {
        // The request vanished during the handoff; pool the worker so it is
        // reclaimed by keep-alive instead of leaking.
        if (cluster_.find_worker(worker_id) != nullptr) {
          warm_pool_.park(fn_id, worker_id);
        }
        return;
      }
      if (cluster_.find_worker(worker_id) == nullptr) {
        // The worker died during the handoff (host outage); re-dispatch.
        retry_node(*live, node, "worker lost during handoff");
        return;
      }
      NodeRecord& record = live->nodes[node.value()];
      record.provision_wait = sim_.now() - record.trigger_time;
      start_execution(*live, node, worker_id);
    }, "engine.worker_handoff");
    // Any remaining waiters need their own workers.
    for (auto [other_request, other_node] : waiters) {
      if (RequestContext* other = find_request(other_request)) {
        dispatch_node(*other, other_node);
      }
    }
    return;
  }
  // Nobody was waiting: park the worker warm.
  warm_pool_.park(fn, worker_id);
}

void PlatformEngine::start_execution(RequestContext& ctx, NodeId node,
                                     WorkerId worker_id) {
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  XANADU_INVARIANT(worker != nullptr,
                   "start_execution: worker vanished before execution");
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Triggered,
                   "start_execution: node was not in Triggered state");
  record.status = NodeStatus::Executing;
  record.exec_start = sim_.now();
  record.worker = worker_id;
  cluster_.begin_execution(*worker, sim_.now(), ctx.id, node);
  policy_->on_node_exec_start(*this, ctx, node);

  const Node& spec_node = ctx.dag->node(node);
  double exec_ms = spec_node.fn.exec_time.millis();
  if (spec_node.fn.exec_jitter > sim::Duration::zero()) {
    exec_ms += ctx.rng.normal(0.0, spec_node.fn.exec_jitter.millis());
  }
  record.exec_duration = sim::Duration::from_millis(std::max(exec_ms, 0.1));

  const RequestId request = ctx.id;
  if (fault_plan_.active() && fault_plan_.next_worker_crash()) {
    // Injected crash: the worker dies strictly inside the execution window,
    // so the completion event below is never scheduled.
    const sim::Duration until_crash = sim::Duration::from_millis(
        record.exec_duration.millis() * fault_plan_.next_crash_point());
    record.finish_event =
        sim_.schedule_after(until_crash, [this, request, node, worker_id] {
          RequestContext* live = find_request(request);
          if (live == nullptr) {
            // The request already failed over; the crash still kills the
            // sandbox it was scheduled against.
            if (cluster_.find_worker(worker_id) != nullptr) {
              cluster_.crash_worker(worker_id, sim_.now());
            }
            return;
          }
          crash_execution(*live, node);
        }, "engine.exec_crash");
    return;
  }
  record.finish_event =
      sim_.schedule_after(record.exec_duration, [this, request, node,
                                                 worker_id] {
        RequestContext* live = find_request(request);
        if (live == nullptr) {
          // Orphan reaping: the request was failed over while this body ran.
          // Finish the (discarded) execution so the worker rejoins the warm
          // pool instead of sitting Busy forever.
          cluster::Worker* worker = cluster_.find_worker(worker_id);
          if (worker != nullptr &&
              worker->state() == cluster::WorkerState::Busy) {
            cluster_.end_execution(*worker, sim_.now());
            warm_pool_.park(worker->function(), worker_id);
            ++recovery_stats_.orphans_reaped;
          }
          return;
        }
        finish_execution(*live, node);
      }, "engine.exec_end");
}

void PlatformEngine::finish_execution(RequestContext& ctx, NodeId node) {
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Executing,
                   "finish_execution: node was not executing");
  record.status = NodeStatus::Completed;
  record.finish_event = EventId{};
  record.exec_end = sim_.now();
  XANADU_INVARIANT(record.exec_end >= record.exec_start,
                   "finish_execution: execution interval regressed");
  XANADU_INVARIANT(ctx.outstanding > 0,
                   "finish_execution: outstanding counter underflow");
  --ctx.outstanding;

  cluster::Worker* worker = cluster_.find_worker(record.worker);
  XANADU_INVARIANT(worker != nullptr,
                   "finish_execution: executing worker vanished");
  cluster_.end_execution(*worker, sim_.now());
  warm_pool_.park(function_id(ctx.workflow, node), record.worker);

  policy_->on_node_completed(*this, ctx, node);

  const Node& spec_node = ctx.dag->node(node);
  if (spec_node.children.empty()) {
    maybe_finish_request(ctx);
    return;
  }

  if (spec_node.dispatch == DispatchMode::Xor) {
    scratch_.clear();
    for (const Edge& e : spec_node.children) scratch_.push_back(e.probability);
    const std::size_t pick = ctx.rng.weighted_index(scratch_);
    const NodeId chosen = spec_node.children[pick].child;
    policy_->on_xor_resolved(*this, ctx, node, chosen);
    for (std::size_t i = 0; i < spec_node.children.size(); ++i) {
      const Edge& e = spec_node.children[i];
      resolve_child_edge(ctx, node, e.child, /*taken=*/i == pick,
                         sim_.now() + e.delay);
    }
  } else {
    for (const Edge& e : spec_node.children) {
      resolve_child_edge(ctx, node, e.child, /*taken=*/true,
                         sim_.now() + e.delay);
    }
  }
  maybe_finish_request(ctx);
}

void PlatformEngine::resolve_child_edge(RequestContext& ctx, NodeId parent,
                                        NodeId child, bool taken,
                                        sim::TimePoint trigger_time) {
  NodeRecord& record = ctx.nodes[child.value()];
  if (record.status == NodeStatus::Skipped) return;
  XANADU_INVARIANT(record.status == NodeStatus::Pending,
                   "resolve_child_edge: child already triggered");
  XANADU_INVARIANT(record.unresolved_parents > 0,
                   "resolve_child_edge: unresolved-parents underflow");
  --record.unresolved_parents;
  if (taken) {
    record.any_taken_edge = true;
    record.invoked_by.push_back(parent);
    record.pending_trigger_time =
        std::max(record.pending_trigger_time, trigger_time);
  }
  if (record.unresolved_parents > 0) return;

  if (!record.any_taken_edge) {
    mark_skipped(ctx, child);
    return;
  }
  // m:1 barrier satisfied: trigger at the latest taken-edge arrival time.
  const RequestId request = ctx.id;
  const sim::TimePoint when = std::max(record.pending_trigger_time, sim_.now());
  sim_.schedule_at(
      when,
      [this, request, child] {
        if (RequestContext* live = find_request(request)) {
          trigger_node(*live, child);
        }
      },
      "engine.barrier_trigger");
}

void PlatformEngine::mark_skipped(RequestContext& ctx, NodeId node) {
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Pending,
                   "mark_skipped: node is not pending");
  record.status = NodeStatus::Skipped;
  XANADU_INVARIANT(ctx.outstanding > 0,
                   "mark_skipped: outstanding counter underflow");
  --ctx.outstanding;
  policy_->on_node_skipped(*this, ctx, node);
  // Propagate: this node will never complete, so its out-edges resolve as
  // not-taken.
  for (const Edge& e : ctx.dag->node(node).children) {
    resolve_child_edge(ctx, node, e.child, /*taken=*/false, sim_.now());
  }
}

RequestResult PlatformEngine::result_prologue(const RequestContext& ctx) const {
  RequestResult result;
  result.id = ctx.id;
  result.workflow = ctx.workflow;
  result.submitted = ctx.submitted;
  result.completed = sim_.now();
  result.end_to_end = result.completed - result.submitted;
  result.cold_starts = ctx.cold_starts;
  result.workers_provisioned = ctx.workers_provisioned;
  result.speculation = ctx.speculation;
  result.node_records = ctx.nodes;
  return result;
}

void PlatformEngine::maybe_finish_request(RequestContext& ctx) {
  if (ctx.outstanding > 0) return;

  RequestResult result = result_prologue(ctx);

  // Critical-path execution time over *executed* nodes: the paper's
  // "cumulative raw function execution duration" of the slowest branch.
  // The topological order is cached per registered workflow; scratch_
  // holds each node's longest path.
  double critical = 0.0;
  scratch_.assign(ctx.dag->node_count(), 0.0);
  for (const NodeId id : workflows_.find(ctx.workflow)->topo_order) {
    const NodeRecord& record = ctx.nodes[id.value()];
    if (record.status != NodeStatus::Completed) continue;
    double best_parent = 0.0;
    for (const NodeId parent : ctx.dag->node(id).parents) {
      if (ctx.nodes[parent.value()].status == NodeStatus::Completed) {
        best_parent = std::max(best_parent, scratch_[parent.value()]);
      }
    }
    scratch_[id.value()] = best_parent + record.exec_duration.seconds();
    critical = std::max(critical, scratch_[id.value()]);
    ++result.executed_nodes;
  }
  for (const NodeRecord& record : ctx.nodes) {
    if (record.status == NodeStatus::Skipped) ++result.skipped_nodes;
  }
  result.critical_path_exec = sim::Duration::from_seconds(critical);
  result.overhead = result.end_to_end - result.critical_path_exec;

  policy_->on_request_completed(*this, ctx, result);

  CompletionCallback callback = std::move(ctx.on_complete);
  recycle_request(ctx.id);
  if (callback) callback(result);
}

void PlatformEngine::fail_request(RequestContext& ctx, std::string reason) {
  ++recovery_stats_.requests_failed;
  RequestResult result = result_prologue(ctx);
  result.failed = true;
  result.failure_reason = std::move(reason);
  for (const NodeRecord& record : ctx.nodes) {
    if (record.status == NodeStatus::Completed) ++result.executed_nodes;
    if (record.status == NodeStatus::Skipped) ++result.skipped_nodes;
  }
  // Executing workers are NOT killed: their (discarded) bodies run to
  // completion and the orphan-reaping path in start_execution pools them.
  // Waiter entries and scheduled events for this request become no-ops via
  // find_request checks.
  policy_->on_request_completed(*this, ctx, result);
  CompletionCallback callback = std::move(ctx.on_complete);
  recycle_request(ctx.id);
  if (callback) callback(result);
}

std::size_t PlatformEngine::fail_all_pending_requests(
    const std::string& reason) {
  // Collected first, since failing a request erases it; failure order is
  // observable through callbacks, and the table gives request-id order.
  std::vector<RequestId> ids;
  ids.reserve(requests_.size());
  requests_.for_each(
      [&ids](RequestId id, const RequestContext&) { ids.push_back(id); });
  for (const RequestId id : ids) {
    if (RequestContext* ctx = find_request(id)) {
      fail_request(*ctx, reason);
    }
  }
  return ids.size();
}

}  // namespace xanadu::platform
