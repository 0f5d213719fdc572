// PlatformEngine: fault recovery -- what the platform does when injected
// faults fire.  Bounded node re-dispatch with exponential backoff, mid-
// execution crashes, the lazy host-outage scheduler (one outage in flight at
// a time, drawn from the fault plan) and the outage teardown of workers in
// every lifecycle stage.  Inert on fault-free runs: nothing here executes
// unless the fault plan is active, so fault-free digests cannot move.

#include <cstdint>
#include <string>

#include "platform/engine.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

namespace {

/// A node whose worker died (build failure, crash, host outage) is
/// re-dispatched after this backoff times 2^(attempt-1) ...
constexpr sim::Duration kRedispatchBackoff = sim::Duration::from_millis(20);
/// ... up to this many times; after that the whole request fails cleanly.
constexpr unsigned kMaxNodeRetries = 3;

}  // namespace

void PlatformEngine::retry_node(RequestContext& ctx, NodeId node,
                                const char* cause) {
  if (!calib_.recovery.enabled) {
    // No recovery: the node strands where it is.  Run harnesses detect the
    // stall (no pending events, request incomplete) and fail it cleanly.
    return;
  }
  NodeRecord& record = ctx.nodes[node.value()];
  ++record.retries;
  ++recovery_stats_.node_retries;
  if (record.retries > kMaxNodeRetries) {
    // lint:allow(hot-path-text) failure reason, once per failed request
    fail_request(ctx, "node " + std::to_string(node.value()) + ": " + cause +
                          "; retries exhausted");
    return;
  }
  // Back to Triggered (it was Triggered awaiting a worker, or Executing on
  // the worker that just died) and through dispatch again after backoff.
  record.status = NodeStatus::Triggered;
  record.worker = WorkerId{};
  const sim::Duration backoff =
      kRedispatchBackoff *
      static_cast<double>(std::uint64_t{1} << (record.retries - 1));
  const RequestId request = ctx.id;
  sim_.schedule_after(
      backoff,
      [this, request, node] {
        if (RequestContext* live = find_request(request)) {
          dispatch_node(*live, node);
        }
      },
      "recovery.redispatch");
}

void PlatformEngine::retry_waiters(const ProvisionWaiters& waiters,
                                   const char* cause) {
  for (auto [request, node] : waiters) {
    if (RequestContext* ctx = find_request(request)) {
      retry_node(*ctx, node, cause);
    }
  }
}

void PlatformEngine::crash_execution(RequestContext& ctx, NodeId node) {
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Executing,
                   "crash_execution: node was not executing");
  const WorkerId worker_id = record.worker;
  record.finish_event = EventId{};
  cluster_.crash_worker(worker_id, sim_.now());
  retry_node(ctx, node, "worker crashed mid-execution");
}

void PlatformEngine::maybe_schedule_host_outage() {
  if (!fault_plan_.active() ||
      calib_.faults.host_outage_rate_per_hour <= 0.0 || outage_pending_) {
    return;
  }
  outage_pending_ = true;
  const auto outage = fault_plan_.next_host_outage(cluster_.host_count());
  const std::size_t victim = outage.second;
  sim_.schedule_after(
      outage.first,
      [this, victim] {
        outage_pending_ = false;
        apply_host_outage(victim);
        // Reschedule only while requests are live, so an idle simulator
        // drains instead of chaining outage events forever.
        if (!requests_.empty()) maybe_schedule_host_outage();
      },
      "recovery.host_outage");
}

void PlatformEngine::apply_host_outage(std::size_t host_index) {
  const common::HostId host{host_index};
  fault_plan_.count_host_outage();
  cluster_.set_host_available(host, false);
  for (const WorkerId worker : cluster_.workers_on_host(host)) {
    kill_worker_for_fault(worker);
  }
  sim_.schedule_after(
      calib_.faults.host_downtime,
      [this, host] { cluster_.set_host_available(host, true); },
      "recovery.host_back_up");
}

void PlatformEngine::kill_worker_for_fault(WorkerId worker_id) {
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  if (worker == nullptr) return;
  ++recovery_stats_.outage_worker_kills;
  switch (worker->state()) {
    case cluster::WorkerState::Provisioning: {
      // In-flight build (or a command still on the bus): cancel whatever is
      // pending and retry the waiters elsewhere.
      std::optional<ProvisionWaiters> waiters =
          pipeline_.remove_for_outage(worker_id);
      cluster_.destroy_worker(worker_id, sim_.now());
      if (waiters) retry_waiters(*waiters, "host outage");
      break;
    }
    case cluster::WorkerState::Warm: {
      // Pooled, or in a handoff / rebind window (then not in the pool; the
      // deferred lambdas notice the vanished worker and recover).
      warm_pool_.remove_if_pooled(worker->function(), worker_id);
      cluster_.destroy_worker(worker_id, sim_.now());
      break;
    }
    case cluster::WorkerState::Busy: {
      auto [owner_ctx, owner_node] = find_executing(*worker);
      // The crash, and with it the Dead announcement, comes before the
      // cancel: announcements keep their place among schedules and cancels,
      // so replays stay byte-identical.  An orphan -- Busy for an already-
      // failed request -- has no owner; its completion finds no worker.
      cluster_.crash_worker(worker_id, sim_.now());
      if (owner_ctx != nullptr) {
        NodeRecord& record = owner_ctx->nodes[owner_node.value()];
        sim_.cancel(record.finish_event);
        record.finish_event = EventId{};
        retry_node(*owner_ctx, owner_node, "host outage");
      }
      break;
    }
    case cluster::WorkerState::Dead:
      break;
  }
}

std::pair<RequestContext*, NodeId> PlatformEngine::find_executing(
    const cluster::Worker& worker) {
  // Request ids are never reused, so an orphan's request is simply gone.
  RequestContext* ctx = find_request(worker.running_request());
  if (ctx == nullptr) return {nullptr, NodeId{}};
  const NodeRecord& record = ctx->nodes[worker.running_node().value()];
  XANADU_INVARIANT(
      record.status == NodeStatus::Executing && record.worker == worker.id(),
      "find_executing: a busy worker's node is not executing on it");
  return {ctx, worker.running_node()};
}

}  // namespace xanadu::platform
