#include "core/xanadu_policy.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace xanadu::core {

using platform::NodeStatus;
using platform::PlatformEngine;
using platform::RequestContext;
using platform::RequestResult;

namespace {

/// True when `metadata` names a node at or past `node_count`.
bool names_node_outside(const WorkflowMetadata& metadata,
                        std::size_t node_count) {
  const auto outside = [node_count](NodeId node) {
    return node.value() >= node_count;
  };
  const BranchModel& model = metadata.model;
  if (std::any_of(model.roots().begin(), model.roots().end(), outside)) {
    return true;
  }
  for (const NodeId node : model.known_nodes()) {
    if (outside(node)) return true;
    for (const LearnedEdge& e : model.find(node)->children) {
      if (outside(e.child)) return true;
    }
  }
  bool found = false;
  metadata.profiles.for_each_function(
      [&](NodeId node, const FunctionProfile&) { found = found || outside(node); });
  metadata.profiles.for_each_invoke_gap(
      [&](NodeId parent, NodeId child, const common::Ema&) {
        found = found || outside(parent) || outside(child);
      });
  return found;
}

}  // namespace

const char* to_string(SpeculationMode mode) {
  switch (mode) {
    case SpeculationMode::Off: return "cold";
    case SpeculationMode::Speculative: return "speculative";
    case SpeculationMode::Jit: return "jit";
  }
  return "unknown";
}

XanaduPolicy::XanaduPolicy(XanaduOptions options) : options_(options) {
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(options_.aggressiveness > 0.0 && options_.aggressiveness <= 1.0)) {
    throw std::invalid_argument{"XanaduPolicy: aggressiveness must be in (0, 1]"};
  }
}

const BranchModel* XanaduPolicy::model(common::WorkflowId id) const {
  const WorkflowState* wf = workflows_.find(id);
  return wf == nullptr ? nullptr : &wf->model;
}

const ProfileTable* XanaduPolicy::profiles(common::WorkflowId id) const {
  const WorkflowState* wf = workflows_.find(id);
  return wf == nullptr ? nullptr : &wf->profiles;
}

MlpResult XanaduPolicy::current_mlp(common::WorkflowId id) const {
  const WorkflowState* wf = workflows_.find(id);
  if (wf == nullptr) return {};
  BranchModel snapshot = wf->model;
  snapshot.finalize_pending();
  return estimate_mlp(snapshot, options_.mlp);
}

void XanaduPolicy::RequestState::reset(std::size_t node_count) {
  path.clear();
  path.reserve(node_count);
  nodes.assign(node_count, NodeMark{});
}

void XanaduPolicy::RequestState::adopt(const MlpResult& estimate,
                                       std::size_t cut) {
  for (std::size_t i = 0; i < estimate.path.size(); ++i) {
    const NodeId id = estimate.path[i];
    NodeMark& node = mark(id);
    if (!node.on_mlp && i < cut) path.push_back(id);
    node.on_mlp = true;
    const NodeId predicted = estimate.predicted_choice(id);
    if (predicted.valid()) node.predicted_child = predicted;
  }
}

XanaduPolicy::WorkflowState& XanaduPolicy::workflow_state(PlatformEngine& engine,
                                                          RequestContext& ctx) {
  if (WorkflowState* known = workflows_.find(ctx.workflow)) return *known;
  WorkflowState state;
  if (options_.knowledge == ChainKnowledge::Explicit) {
    // The externalised workflow schema is available: seed the model with
    // the declared structure (probabilities still start at priors).
    state.model = BranchModel::from_schema(engine.dag(ctx.workflow));
  }
  return workflows_.insert_or_assign(ctx.workflow, std::move(state));
}

std::size_t XanaduPolicy::aggressiveness_cut(std::size_t path_length) const {
  if (path_length == 0) return 0;
  const auto cut = static_cast<std::size_t>(
      std::ceil(options_.aggressiveness * static_cast<double>(path_length)));
  return std::max<std::size_t>(cut, 1);
}

void XanaduPolicy::on_request_submitted(PlatformEngine& engine,
                                        RequestContext& ctx) {
  WorkflowState& wf = workflow_state(engine, ctx);
  if (options_.mode == SpeculationMode::Off) return;
  if (ctx.policy_state == nullptr) {
    ctx.policy_state = std::make_unique<RequestState>();
  }
  RequestState* rs = state(ctx);
  rs->reset(ctx.nodes.size());

  wf.model.finalize_pending();
  wf.mlp = estimate_mlp(wf.model, options_.mlp, std::move(wf.mlp));
  if (wf.mlp.path.empty()) return;  // Implicit chain not discovered yet.

  // Deployment aggressiveness (Section 3.2.1): only look ahead a fraction
  // of the estimated path.  Misses are still judged against the whole
  // estimate.
  const std::size_t cut = aggressiveness_cut(wf.mlp.path.size());
  rs->adopt(wf.mlp, cut);
  wf.mlp.path.resize(cut);
  ctx.speculation.predicted_nodes = rs->path.size();
  deploy(engine, ctx, wf, *rs, wf.mlp);
}

void XanaduPolicy::replan(PlatformEngine& engine, RequestContext& ctx,
                          WorkflowState& wf, RequestState& rs, NodeId chosen) {
  // Re-estimate from the node the workflow actually took.
  BranchModel rooted = wf.model;  // Cheap relative to a prediction miss.
  rooted.finalize_pending();
  wf.mlp = estimate_mlp_from(rooted, {chosen}, options_.mlp, std::move(wf.mlp));
  const MlpResult& fresh = wf.mlp;

  if (options_.reuse_workers_on_miss) {
    // Section 7 extension: sandboxes deployed for the stale path are
    // recycled into the fresh path before any new provisioning starts.
    std::vector<NodeId> stale;
    for (const NodeId id : rs.path) {
      if (ctx.nodes[id.value()].status != platform::NodeStatus::Pending) {
        continue;
      }
      if (!fresh.contains(id)) stale.push_back(id);
    }
    for (const NodeId target_node : fresh.path) {
      if (stale.empty()) break;
      if (ctx.nodes[target_node.value()].status !=
          platform::NodeStatus::Pending) {
        continue;
      }
      const auto target = engine.function_id(ctx.workflow, target_node);
      if (engine.warm_count(target) > 0 ||
          engine.provisioning_in_flight(target)) {
        continue;
      }
      for (auto it = stale.begin(); it != stale.end(); ++it) {
        const auto source = engine.function_id(ctx.workflow, *it);
        // Idle sandbox first; otherwise redirect one still being built
        // (the environment is generic until its code load).
        if (engine.rebind_warm_worker(source, target) ||
            engine.redirect_provision(source, target)) {
          rs.mark(target_node).prewarmed = true;
          stale.erase(it);
          break;
        }
      }
    }
  }

  rs.adopt(fresh, fresh.path.size());
  ctx.speculation.predicted_nodes = rs.path.size();
  deploy(engine, ctx, wf, rs, fresh);
}

void XanaduPolicy::deploy(PlatformEngine& engine, RequestContext& ctx,
                          WorkflowState& wf, RequestState& rs,
                          const MlpResult& target) {
  if (options_.mode == SpeculationMode::Speculative) {
    // Provision every path sandbox at the onset of the workflow.
    for (const NodeId node : target.path) {
      const NodeStatus status = ctx.nodes[node.value()].status;
      if (status != NodeStatus::Pending) continue;
      engine.prewarm(ctx, node);
      rs.mark(node).prewarmed = true;
    }
    return;
  }

  // JIT: build the Algorithm-2 timeline and hand it to the engine whole.
  wf.plan = options_.knowledge == ChainKnowledge::Explicit
                ? plan_explicit(target, wf.model, wf.profiles, options_.jit,
                                std::move(wf.plan))
                : plan_implicit(target, wf.model, wf.profiles, options_.jit,
                                std::move(wf.plan));
  wf.prewarms.clear();
  for (const Deployment& d : wf.plan.deployments) {
    const NodeStatus status = ctx.nodes[d.node.value()].status;
    if (status != NodeStatus::Pending) continue;
    rs.mark(d.node).prewarmed = true;
    wf.prewarms.push_back(platform::PlannedPrewarm{d.node, d.deploy_delay});
  }
  engine.schedule_prewarms(ctx, wf.prewarms);
}

void XanaduPolicy::on_node_triggered(PlatformEngine& engine, RequestContext& ctx,
                                     NodeId node) {
  WorkflowState& wf = workflow_state(engine, ctx);
  const platform::NodeRecord& record = ctx.nodes[node.value()];
  if (record.invoked_by.empty()) {
    wf.model.observe_root(node, ctx.id);
    return;
  }
  for (const NodeId parent : record.invoked_by) {
    wf.model.observe_invocation(parent, node, ctx.id);
    const platform::NodeRecord& parent_record = ctx.nodes[parent.value()];
    // Invoke gaps are only representative when the parent ran warm: a cold
    // parent's gap includes its own provisioning wait, which speculation
    // will remove -- learning it would make the planner deploy late forever.
    if (!parent_record.cold) {
      wf.profiles.observe_invoke_gap(
          parent, node, record.trigger_time - parent_record.trigger_time);
    }
  }
}

void XanaduPolicy::on_worker_ready(PlatformEngine& engine,
                                   common::WorkflowId workflow, NodeId node,
                                   sim::Duration provision_latency) {
  (void)engine;
  WorkflowState* wf = workflows_.find(workflow);
  if (wf == nullptr) return;
  wf->profiles.function(node).observe_startup(provision_latency);
}

void XanaduPolicy::on_node_exec_start(PlatformEngine& engine, RequestContext& ctx,
                                      NodeId node) {
  (void)engine;
  RequestState* rs = state(ctx);
  if (rs != nullptr && !rs->path.empty() && !rs->mark(node).on_mlp) {
    ++ctx.speculation.unpredicted_executions;
  }
}

void XanaduPolicy::on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                                     NodeId node) {
  WorkflowState& wf = workflow_state(engine, ctx);
  const platform::NodeRecord& record = ctx.nodes[node.value()];
  const sim::Duration response = record.exec_end - record.trigger_time;
  FunctionProfile& profile = wf.profiles.function(node);
  if (record.cold) {
    profile.observe_cold_response(response);
  } else {
    profile.observe_warm_response(response);
  }
}

void XanaduPolicy::on_xor_resolved(PlatformEngine& engine, RequestContext& ctx,
                                   NodeId parent, NodeId chosen) {
  RequestState* rs = state(ctx);
  if (rs == nullptr) return;
  const NodeId predicted = rs->mark(parent).predicted_child;
  if (!predicted.valid() || predicted == chosen) return;

  // Prediction miss (Section 3.2.2): stop all planned proactive
  // provisioning immediately.
  ctx.speculation.cancelled_deployments += engine.cancel_prewarms(ctx);

  if (options_.miss_policy == MissPolicy::Replan) {
    // Future-work extension (Section 7): re-evaluate the MLP from the
    // branch the workflow actually took and resume speculation there.
    replan(engine, ctx, workflow_state(engine, ctx), *rs, chosen);
  }
}

void XanaduPolicy::on_node_skipped(PlatformEngine& engine, RequestContext& ctx,
                                   NodeId node) {
  RequestState* rs = state(ctx);
  if (rs == nullptr || !rs->mark(node).on_mlp) return;
  ++ctx.speculation.missed_nodes;
  if (rs->mark(node).prewarmed) {
    const auto fn = engine.function_id(ctx.workflow, node);
    if (options_.reuse_workers_on_miss) {
      // Section 7 extension: hand the mis-deployed sandbox to a pending node
      // on the (replanned) path that has no coverage yet, if the
      // architectures match.
      for (const NodeId candidate : rs->path) {
        const auto status = ctx.nodes[candidate.value()].status;
        if (status != platform::NodeStatus::Pending) continue;
        const auto target = engine.function_id(ctx.workflow, candidate);
        if (engine.warm_count(target) > 0 ||
            engine.provisioning_in_flight(target)) {
          continue;
        }
        if (engine.rebind_warm_worker(fn, target) ||
            engine.redirect_provision(fn, target)) {
          rs->mark(candidate).prewarmed = true;
          break;
        }
      }
    }
    // Whatever could not be reused is discarded: the paper's "speculatively
    // deployed resources have to be discarded".
    ctx.speculation.wasted_workers += engine.shrink_warm_pool(fn, 0);
    ctx.speculation.wasted_workers += engine.abort_unclaimed_provisions(fn);
  }
}

bool XanaduPolicy::persist(common::WorkflowId id, MetadataStore& store,
                           const std::string& key) const {
  const WorkflowState* wf = workflows_.find(id);
  if (wf == nullptr) return false;
  WorkflowMetadata metadata;
  metadata.model = wf->model;
  metadata.model.finalize_pending();
  metadata.profiles = wf->profiles;
  store.put(key, metadata);
  return true;
}

common::Result<bool> XanaduPolicy::restore(common::WorkflowId id,
                                           const workflow::WorkflowDag& dag,
                                           const MetadataStore& store,
                                           const std::string& key) {
  auto loaded = store.get(key);
  if (!loaded.ok()) return loaded.error();
  if (!loaded.value().has_value()) return false;
  WorkflowMetadata& metadata = *loaded.value();
  // Per-request state is indexed by node, so a document naming a node the
  // workflow does not have must not be installed.
  const std::size_t node_count = dag.node_count();
  if (names_node_outside(metadata, node_count)) {
    return common::Error{"metadata document '" + key +
                         "' names a node outside the workflow's " +
                         std::to_string(node_count) + "-node DAG"};
  }
  WorkflowState state;
  state.model = std::move(metadata.model);
  state.profiles = std::move(metadata.profiles);
  workflows_.insert_or_assign(id, std::move(state));
  return true;
}

void XanaduPolicy::on_request_completed(PlatformEngine& engine,
                                        RequestContext& ctx,
                                        RequestResult& result) {
  if (state(ctx) != nullptr) {
    // Planned deployments of a finished request can no longer serve it.  A
    // failed-over request counts them as cancelled (the miss-cancellation
    // path); a completed one was simply faster than its plan.
    const std::size_t cancelled = engine.cancel_prewarms(ctx);
    if (result.failed) ctx.speculation.cancelled_deployments += cancelled;
  }
  WorkflowState& wf = workflow_state(engine, ctx);
  wf.model.finalize_pending();
  result.speculation = ctx.speculation;
}

}  // namespace xanadu::core
