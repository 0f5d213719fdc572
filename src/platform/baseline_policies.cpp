#include "platform/baseline_policies.hpp"

#include <algorithm>
#include <cmath>

#include "platform/engine.hpp"
#include "workflow/dag.hpp"

namespace xanadu::platform {

namespace {

/// MpcHorizonPolicy's head-room multiplier on the Little's-law demand.
constexpr double kMpcSafetyFactor = 1.2;
/// MpcHorizonPolicy's per-function cap on the provision target: a rate
/// spike cannot grab the whole cluster.
constexpr std::size_t kMpcMaxPool = 4;

}  // namespace

// -- PoolPolicy -------------------------------------------------------------

void PoolPolicy::refill(PlatformEngine& engine, WorkflowId workflow,
                        NodeId node, std::size_t borrowed) {
  const FunctionId fn = engine.function_id(workflow, node);
  // In-flight provisions count toward the target so back-to-back refills
  // cannot over-provision while builds are still in the pipeline, and
  // `borrowed` workers (executing right now, guaranteed to re-park into this
  // pool) count too -- replacing a borrow with a fresh build would leave the
  // pool above target once both land.
  const std::size_t covered =
      engine.warm_count(fn) + engine.provisioning_count(fn) + borrowed;
  for (std::size_t i = covered; i < options_.pool_size; ++i) {
    if (!engine.prewarm_function(workflow, node)) break;  // Out of capacity.
  }
}

void PoolPolicy::on_request_submitted(PlatformEngine& engine,
                                      RequestContext& ctx) {
  // Node-id order: the DAG stores nodes by id, so the refill sequence (and
  // therefore every provisioning event it schedules) is replay-stable.
  for (const workflow::Node& node : ctx.dag->nodes()) {
    refill(engine, ctx.workflow, node.id);
  }
}

void PoolPolicy::on_node_exec_start(PlatformEngine& engine, RequestContext& ctx,
                                    NodeId node) {
  // An execution just consumed a pooled (or freshly built) worker.  That
  // worker still counts toward the pool (it re-parks when the node finishes),
  // so this refill only builds when a worker was actually lost -- evicted by
  // keep-alive, or crashed under fault injection.
  refill(engine, ctx.workflow, node, /*borrowed=*/1);
}

void PoolPolicy::on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                                   NodeId node) {
  // The finished worker re-parked itself; anything above pool_size is
  // surplus the pool design does not want to pay idle cost for (keep-alive
  // would reclaim it eventually; eviction makes the pool bound crisp and the
  // resource ledger honest about the policy's cost).
  const FunctionId fn = engine.function_id(ctx.workflow, node);
  engine.shrink_warm_pool(fn, options_.pool_size);
}

// -- MpcHorizonPolicy -------------------------------------------------------

void MpcHorizonPolicy::on_request_submitted(PlatformEngine& engine,
                                            RequestContext& ctx) {
  SeenWorkflow& seen = seen_workflows_.try_emplace(ctx.workflow);
  seen.node_count = ctx.dag->node_count();
  seen.arrivals.push_back(engine.now());
  if (seen.arrivals.size() > kArrivalHistory) seen.arrivals.pop_front();
  maybe_solve(engine);
}

void MpcHorizonPolicy::on_worker_ready(PlatformEngine& engine,
                                       WorkflowId workflow, NodeId node,
                                       sim::Duration provision_latency) {
  Estimate& est = estimates_.try_emplace(engine.function_id(workflow, node));
  ++est.provision_samples;
  est.mean_provision_ms += (provision_latency.millis() - est.mean_provision_ms) /
                           static_cast<double>(est.provision_samples);
}

void MpcHorizonPolicy::on_node_completed(PlatformEngine& engine,
                                         RequestContext& ctx, NodeId node) {
  Estimate& est =
      estimates_.try_emplace(engine.function_id(ctx.workflow, node));
  ++est.exec_samples;
  est.mean_exec_ms +=
      (ctx.nodes[node.value()].exec_duration.millis() - est.mean_exec_ms) /
      static_cast<double>(est.exec_samples);
  // Completions give the controller tick opportunities while long executions
  // run between arrivals; the policy itself schedules no events, so an idle
  // platform still drains.
  maybe_solve(engine);
}

double MpcHorizonPolicy::arrival_rate_per_sec(WorkflowId workflow,
                                              sim::TimePoint now) const {
  if (options_.window <= sim::Duration::zero()) return 0.0;
  const SeenWorkflow* seen = seen_workflows_.find(workflow);
  if (seen == nullptr) return 0.0;
  // Sorted (recorded at non-decreasing virtual time), so the window is the
  // tail after the cutoff.
  const std::deque<sim::TimePoint>& arrivals = seen->arrivals;
  const auto first_in_window =
      std::upper_bound(arrivals.begin(), arrivals.end(), now - options_.window);
  return static_cast<double>(arrivals.end() - first_in_window) /
         options_.window.seconds();
}

const MpcHorizonPolicy::Estimate* MpcHorizonPolicy::estimate(
    FunctionId fn) const {
  return estimates_.find(fn);
}

void MpcHorizonPolicy::maybe_solve(PlatformEngine& engine) {
  const sim::TimePoint now = engine.now();
  if (now < next_tick_) return;
  next_tick_ = now + options_.horizon;
  solve(engine);
}

void MpcHorizonPolicy::solve(PlatformEngine& engine) {
  ++solves_;
  // The walk (and the node walk inside) is in id order, so the emitted
  // provision/evict actions are replay-stable.
  seen_workflows_.for_each([&](WorkflowId workflow, const SeenWorkflow& seen) {
    const double lambda = arrival_rate_per_sec(workflow, engine.now());
    for (std::size_t i = 0; i < seen.node_count; ++i) {
      const NodeId node{i};
      const FunctionId fn = engine.function_id(workflow, node);

      // Little's-law demand: concurrent workers ~ lambda * busy time, where
      // busy time is the online exec + provision estimate.  Before any
      // observation the estimate is empty; demand then degrades to "one warm
      // worker while traffic flows", which is the honest model-free floor.
      double busy_seconds = 0.0;
      if (const Estimate* est = estimate(fn)) {
        if (est->exec_samples > 0) busy_seconds += est->mean_exec_ms / 1e3;
        if (est->provision_samples > 0) {
          busy_seconds += est->mean_provision_ms / 1e3;
        }
      }
      std::size_t target = 0;
      if (lambda > 0.0) {
        const double demand = lambda * busy_seconds * kMpcSafetyFactor;
        target = static_cast<std::size_t>(std::ceil(demand));
        target = std::max<std::size_t>(target, 1);
        target = std::min(target, kMpcMaxPool);
      }

      const std::size_t warm = engine.warm_count(fn);
      const std::size_t covered = warm + engine.provisioning_count(fn);
      if (covered < target) {
        for (std::size_t j = covered; j < target; ++j) {
          if (!engine.prewarm_function(workflow, node)) break;
        }
      } else if (warm > target) {
        engine.shrink_warm_pool(fn, target);
      }
    }
  });
}

}  // namespace xanadu::platform
