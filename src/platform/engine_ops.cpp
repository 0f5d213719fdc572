// PlatformEngine: registration, introspection, subsystem hook wiring, and
// the policy-facing operations.  The request lifecycle lives in engine.cpp,
// fault recovery in recovery.cpp.

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "platform/engine.hpp"

namespace xanadu::platform {

using workflow::Node;
using workflow::WorkflowDag;

// ---------------------------------------------------------------------------
// Subsystem hook wiring.  Every cross-subsystem interaction goes through
// these callbacks; no subsystem sees another's private state.
// ---------------------------------------------------------------------------

ProvisionPipeline::Hooks PlatformEngine::pipeline_hooks() {
  ProvisionPipeline::Hooks hooks;
  hooks.on_ready = [this](WorkerId worker, ProvisionWaiters waiters) {
    provision_ready(worker, std::move(waiters));
  };
  hooks.on_build_failed = [this](const ProvisionWaiters& waiters) {
    retry_waiters(waiters, "sandbox build failed");
  };
  return hooks;
}

// ---------------------------------------------------------------------------
// Registration and introspection.
// ---------------------------------------------------------------------------

WorkflowId PlatformEngine::register_workflow(WorkflowDag dag) {
  dag.validate();
  const WorkflowId id = workflow_ids_.next();
  RegisteredWorkflow reg{std::move(dag), {}, {}, {}};
  reg.topo_order = reg.dag.topological_order();
  reg.roots = reg.dag.roots();
  reg.node_functions.reserve(reg.dag.node_count());
  for (const Node& node : reg.dag.nodes()) {
    const FunctionId fn = function_ids_.next();
    reg.node_functions.push_back(fn);
    functions_.try_emplace(fn, FunctionInfo{node.fn, id, node.id});
  }
  workflows_.try_emplace(id, std::move(reg));
  return id;
}

const WorkflowDag& PlatformEngine::dag(WorkflowId id) const {
  const RegisteredWorkflow* reg = workflows_.find(id);
  if (reg == nullptr) {
    throw std::invalid_argument{"PlatformEngine::dag: unknown workflow"};
  }
  return reg->dag;
}

PlatformEngine::FunctionInfo& PlatformEngine::function_info(FunctionId fn) {
  FunctionInfo* info = functions_.find(fn);
  if (info == nullptr) {
    throw std::logic_error{"PlatformEngine: unknown function"};
  }
  return *info;
}

void PlatformEngine::recycle_request(RequestId id) {
  std::unique_ptr<RequestContext> ctx = requests_.extract(id);
  if (ctx == nullptr) return;
  if (context_pool_.size() >= kContextPoolCap) return;  // destroy instead
  ctx->reset_for_reuse();
  context_pool_.push_back(std::move(ctx));
}

sim::Duration PlatformEngine::dispatch_overhead() {
  double millis =
      calib_.dispatch_latency.millis() + calib_.orchestration_step.millis();
  if (calib_.overhead_jitter > sim::Duration::zero()) {
    // Shared engine stream is deliberate: dispatch overheads are consulted in
    // a fixed serial order within a timestamp (the race sweep covers this).
    millis += std::abs(  // lint:allow(shared-rng-draw)
        rng_.normal(0.0, calib_.overhead_jitter.millis()));
  }
  return sim::Duration::from_millis(std::max(millis, 0.1));
}

// ---------------------------------------------------------------------------
// Policy-facing operations (validated here, executed by the subsystems).
// ---------------------------------------------------------------------------

bool PlatformEngine::prewarm(RequestContext& ctx, NodeId node) {
  const FunctionId fn = function_id(ctx.workflow, node);
  if (warm_pool_.warm_count(fn) > 0 || provisioning_in_flight(fn)) {
    return false;  // Already covered (warm, provisioning, or rebinding).
  }
  return start_provision(fn, &ctx) != nullptr;
}

bool PlatformEngine::prewarm_function(WorkflowId workflow, NodeId node) {
  const FunctionId fn = function_id(workflow, node);
  // No coverage veto: a policy refilling a pool of depth N must be able to
  // provision past existing warm workers and in-flight builds.  The only
  // failure here is cluster placement (out of capacity).
  return start_provision(fn, /*ctx=*/nullptr) != nullptr;
}

std::size_t PlatformEngine::shrink_warm_pool(FunctionId fn, std::size_t target) {
  function_info(fn);  // Validate: unknown functions throw.
  return warm_pool_.shrink_to(fn, target);
}

void PlatformEngine::schedule_prewarms(RequestContext& ctx,
                                       std::span<const PlannedPrewarm> plan) {
  cancel_prewarms(ctx);
  for (const PlannedPrewarm& step : plan) {
    if (step.delay == sim::Duration::zero()) {
      prewarm(ctx, step.node);
      continue;
    }
    if (ctx.prewarms.capacity() == 0) ctx.prewarms.reserve(ctx.nodes.size());
    ctx.prewarms.push_back(ScheduledPrewarm{
        sim_.reserve_key(sim_.now() + step.delay.clamped_non_negative()),
        step.node});
  }
  // Plan delays are not monotone along the path (each node's startup
  // differs), so the reserved keys are sorted here, once.
  std::sort(ctx.prewarms.begin(), ctx.prewarms.end(),
            [](const ScheduledPrewarm& a, const ScheduledPrewarm& b) {
              return a.key < b.key;
            });
  queue_next_prewarm(ctx);
}

void PlatformEngine::queue_next_prewarm(RequestContext& ctx) {
  if (ctx.next_prewarm == ctx.prewarms.size()) return;
  const RequestId request = ctx.id;
  ctx.prewarm_event = sim_.schedule_keyed(
      ctx.prewarms[ctx.next_prewarm].key,
      [this, request] { fire_prewarm(request); }, "engine.scheduled_prewarm");
}

void PlatformEngine::fire_prewarm(RequestId request) {
  RequestContext* ctx = find_request(request);
  if (ctx == nullptr) return;
  const NodeId node = ctx->prewarms[ctx->next_prewarm++].node;
  queue_next_prewarm(*ctx);
  prewarm(*ctx, node);
}

std::size_t PlatformEngine::cancel_prewarms(RequestContext& ctx) {
  const std::size_t unfired = ctx.prewarms.size() - ctx.next_prewarm;
  sim_.cancel(ctx.prewarm_event);
  ctx.prewarm_event = EventId{};
  ctx.prewarms.clear();
  ctx.next_prewarm = 0;
  return unfired;
}

std::size_t PlatformEngine::abort_unclaimed_provisions(FunctionId fn) {
  function_info(fn);
  return pipeline_.abort_unclaimed(fn);
}

bool PlatformEngine::rebind_warm_worker(FunctionId from, FunctionId to) {
  const FunctionInfo& source = function_info(from);
  const FunctionInfo& target = function_info(to);
  if (warm_pool_.warm_count(from) == 0) return false;
  if (source.spec.sandbox != target.spec.sandbox ||
      source.spec.memory_mb != target.spec.memory_mb) {
    return false;  // Different architectures cannot share a sandbox.
  }
  return warm_pool_.rebind(from, to);
}

bool PlatformEngine::redirect_provision(FunctionId from, FunctionId to) {
  const FunctionInfo& source = function_info(from);
  const FunctionInfo& target = function_info(to);
  if (source.spec.sandbox != target.spec.sandbox ||
      source.spec.memory_mb != target.spec.memory_mb) {
    return false;
  }
  return pipeline_.redirect(from, to);
}

void PlatformEngine::flush_all_warm_workers() {
  warm_pool_.flush_all();
}

void PlatformEngine::register_probes(sim::ProbeRegistry& probes) const {
  probes.add("engine.inflight_requests",
             [this] { return static_cast<std::uint64_t>(requests_.size()); });
  probes.add("engine.registered_functions",
             [this] { return static_cast<std::uint64_t>(functions_.size()); });
  probes.add("engine.state_digest", [this] { return state_digest(); });
  warm_pool_.register_probes(probes);
  pipeline_.register_probes(probes);
  probes.add("recovery.command_retries",
             [this] { return recovery_stats_.command_retries; });
  probes.add("recovery.builds_abandoned",
             [this] { return recovery_stats_.builds_abandoned; });
  probes.add("recovery.node_retries",
             [this] { return recovery_stats_.node_retries; });
  probes.add("recovery.requests_failed",
             [this] { return recovery_stats_.requests_failed; });
  probes.add("recovery.orphans_reaped",
             [this] { return recovery_stats_.orphans_reaped; });
  probes.add("recovery.outage_worker_kills",
             [this] { return recovery_stats_.outage_worker_kills; });
  if (bus_ != nullptr) {
    probes.add("bus.published", [this] { return bus_->published_count(); });
    probes.add("bus.delivered", [this] { return bus_->delivered_count(); });
    probes.add("bus.dropped", [this] { return bus_->dropped_count(); });
  }
}

std::uint64_t PlatformEngine::state_digest() const {
  std::uint64_t digest = warm_pool_.membership_digest();
  const cluster::ResourceLedger& ledger = cluster_.ledger();
  const auto fold = [&digest](double value) {
    digest = common::fnv1a_u64(std::bit_cast<std::uint64_t>(value), digest);
  };
  fold(ledger.provision_cpu_core_seconds);
  fold(ledger.idle_cpu_core_seconds);
  fold(ledger.idle_memory_mb_seconds);
  fold(ledger.pre_use_idle_cpu_core_seconds);
  fold(ledger.pre_use_memory_mb_seconds);
  digest = common::fnv1a_u64(ledger.workers_provisioned, digest);
  digest = common::fnv1a_u64(ledger.workers_wasted, digest);
  digest = common::fnv1a_u64(ledger.executions, digest);
  return digest;
}

}  // namespace xanadu::platform
