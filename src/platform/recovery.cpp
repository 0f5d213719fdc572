#include "platform/recovery.hpp"

#include <cstdint>

#include "platform/provision_pipeline.hpp"
#include "platform/warm_pool.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

RecoveryManager::RecoveryManager(sim::Simulator& sim, cluster::Cluster& cluster,
                                 const PlatformCalibration& calib,
                                 sim::FaultPlan& fault_plan, Hooks hooks)
    : sim_(sim),
      cluster_(cluster),
      calib_(calib),
      fault_plan_(fault_plan),
      hooks_(std::move(hooks)) {}

void RecoveryManager::wire(WarmPoolManager& warm_pool,
                           ProvisionPipeline& pipeline) {
  warm_pool_ = &warm_pool;
  pipeline_ = &pipeline;
}

void RecoveryManager::retry_node(RequestContext& ctx, NodeId node,
                                 const char* cause) {
  if (!calib_.recovery.enabled) {
    // No recovery: the node strands where it is.  Run harnesses detect the
    // stall (no pending events, request incomplete) and fail it cleanly.
    return;
  }
  NodeRecord& record = ctx.nodes[node.value()];
  ++record.retries;
  ++stats_.node_retries;
  if (record.retries > calib_.recovery.max_node_retries) {
    // lint:allow(hot-path-text) failure reason, once per failed request
    hooks_.fail_request(ctx, "node " + std::to_string(node.value()) + ": " +
                                 cause + "; retries exhausted");
    return;
  }
  // Back to Triggered (it was Triggered awaiting a worker, or Executing on
  // the worker that just died) and through dispatch again after backoff.
  record.status = NodeStatus::Triggered;
  record.worker = WorkerId{};
  const sim::Duration backoff =
      calib_.recovery.redispatch_backoff *
      static_cast<double>(std::uint64_t{1} << (record.retries - 1));
  const RequestId request = ctx.id;
  sim_.schedule_after(
      backoff,
      [this, request, node] {
        if (RequestContext* live = hooks_.find_request(request)) {
          hooks_.dispatch_node(*live, node);
        }
      },
      "recovery.redispatch");
}

void RecoveryManager::crash_execution(RequestContext& ctx, NodeId node) {
  NodeRecord& record = ctx.nodes[node.value()];
  XANADU_INVARIANT(record.status == NodeStatus::Executing,
                   "crash_execution: node was not executing");
  const WorkerId worker_id = record.worker;
  record.finish_event = EventId{};
  hooks_.publish_worker_event(WorkerEventKind::Dead, worker_id);
  cluster_.crash_worker(worker_id, sim_.now());
  retry_node(ctx, node, "worker crashed mid-execution");
}

void RecoveryManager::maybe_schedule_host_outage() {
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
        if (hooks_.has_live_requests()) maybe_schedule_host_outage();
      },
      "recovery.host_outage");
}

void RecoveryManager::apply_host_outage(std::size_t host_index) {
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

void RecoveryManager::kill_worker_for_fault(WorkerId worker_id) {
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  if (worker == nullptr) return;
  ++stats_.outage_worker_kills;
  const FunctionId fn = worker->function();
  switch (worker->state()) {
    case cluster::WorkerState::Provisioning: {
      // In-flight build (or a command still on the bus): cancel whatever is
      // pending and retry the waiters elsewhere.
      std::optional<ProvisionWaiters> waiters =
          pipeline_->remove_for_outage(fn, worker_id);
      hooks_.publish_worker_event(WorkerEventKind::Dead, worker_id);
      cluster_.destroy_worker(worker_id, sim_.now());
      if (waiters) {
        for (auto [request, node] : *waiters) {
          if (RequestContext* ctx = hooks_.find_request(request)) {
            retry_node(*ctx, node, "host outage");
          }
        }
      }
      break;
    }
    case cluster::WorkerState::Warm: {
      // Pooled, or in a handoff / rebind window (then not in the pool; the
      // deferred lambdas notice the vanished worker and recover).
      warm_pool_->remove_if_pooled(fn, worker_id);
      hooks_.publish_worker_event(WorkerEventKind::Dead, worker_id);
      cluster_.destroy_worker(worker_id, sim_.now());
      break;
    }
    case cluster::WorkerState::Busy: {
      // Find the (request, node) executing on this worker; the engine's scan
      // is order-insensitive (at most one node matches).
      auto [owner_ctx, owner_node] = hooks_.find_executing(worker_id);
      hooks_.publish_worker_event(WorkerEventKind::Dead, worker_id);
      if (owner_ctx != nullptr) {
        NodeRecord& record = owner_ctx->nodes[owner_node.value()];
        sim_.cancel(record.finish_event);
        record.finish_event = EventId{};
        cluster_.crash_worker(worker_id, sim_.now());
        retry_node(*owner_ctx, owner_node, "host outage");
      } else {
        // Busy on behalf of an already-failed request (orphan): the pending
        // completion lambda will find the worker gone and no-op.
        cluster_.crash_worker(worker_id, sim_.now());
      }
      break;
    }
    case cluster::WorkerState::Dead:
      break;
  }
}

void RecoveryManager::register_probes(sim::ProbeRegistry& probes) const {
  probes.add("recovery.command_retries",
             [this] { return stats_.command_retries; });
  probes.add("recovery.builds_abandoned",
             [this] { return stats_.builds_abandoned; });
  probes.add("recovery.node_retries", [this] { return stats_.node_retries; });
  probes.add("recovery.requests_failed",
             [this] { return stats_.requests_failed; });
  probes.add("recovery.orphans_reaped",
             [this] { return stats_.orphans_reaped; });
  probes.add("recovery.outage_worker_kills",
             [this] { return stats_.outage_worker_kills; });
}

}  // namespace xanadu::platform
