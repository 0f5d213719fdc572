#include "core/jit_planner.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace xanadu::core {

namespace {

/// The latest `arrival(parent)` over the MLP parents of path[i] -- the path
/// nodes that have path[i] among their children -- floored at zero, or
/// nullopt when path[i] has none.  Each parent's deployment is read from
/// `plan`, which holds the deployments of path[0, i).
template <typename Arrival>
std::optional<sim::Duration> latest_parent(const MlpResult& mlp, std::size_t i,
                                           const BranchModel& model,
                                           const JitPlan& plan,
                                           Arrival&& arrival) {
  const NodeId node = mlp.path[i];
  std::optional<sim::Duration> latest;
  for (std::size_t j = 0; j < mlp.path.size(); ++j) {
    if (mlp.path[j] == node) continue;
    const ModelNode* mn = model.find(mlp.path[j]);
    if (mn == nullptr || mn->find_child(node) == nullptr) continue;
    if (j > i) {
      throw std::out_of_range{"JIT planner: an MLP parent follows its child"};
    }
    latest = std::max(latest.value_or(sim::Duration::zero()),
                      arrival(plan.deployments[j]));
  }
  return latest;
}

sim::Duration profile_startup(const ProfileTable& profiles, NodeId node,
                              const ProfileFallbacks& fb) {
  const FunctionProfile* p = profiles.find_function(node);
  return p == nullptr ? fb.startup : p->startup(fb);
}

sim::Duration profile_cold(const ProfileTable& profiles, NodeId node,
                           const ProfileFallbacks& fb) {
  const FunctionProfile* p = profiles.find_function(node);
  return p == nullptr ? fb.cold_response : p->cold_response(fb);
}

sim::Duration profile_warm(const ProfileTable& profiles, NodeId node,
                           const ProfileFallbacks& fb) {
  const FunctionProfile* p = profiles.find_function(node);
  return p == nullptr ? fb.warm_response : p->warm_response(fb);
}

/// A non-root deployment: provisioning starts `startup` plus the safety
/// margin before the expected trigger.
Deployment deploy_before(NodeId node, sim::Duration invocation,
                         const ProfileTable& profiles,
                         const JitOptions& options) {
  Deployment d;
  d.node = node;
  d.expected_invocation = invocation;
  const sim::Duration startup =
      profile_startup(profiles, node, options.fallbacks);
  d.deploy_delay =
      (invocation - startup - options.safety_margin).clamped_non_negative();
  return d;
}

}  // namespace

JitPlan plan_explicit(const MlpResult& mlp, const BranchModel& model,
                      const ProfileTable& profiles, const JitOptions& options,
                      JitPlan plan) {
  plan.deployments.clear();
  plan.deployments.reserve(mlp.path.size());
  for (std::size_t i = 0; i < mlp.path.size(); ++i) {
    const NodeId node = mlp.path[i];
    // m:1 barrier: the child is invoked when its slowest parent finishes.
    const std::optional<sim::Duration> invocation = latest_parent(
        mlp, i, model, plan, [](const Deployment& p) { return p.max_delay; });
    Deployment d;
    if (!invocation) {
      // Root nodes are invoked immediately; deploy now.  Their first
      // completion is a cold response (the provisioning races the request).
      d.node = node;
      d.max_delay = profile_cold(profiles, node, options.fallbacks);
    } else {
      d = deploy_before(node, *invocation, profiles, options);
      d.max_delay =
          *invocation + profile_warm(profiles, node, options.fallbacks);
    }
    plan.deployments.push_back(d);
  }
  return plan;
}

JitPlan plan_implicit(const MlpResult& mlp, const BranchModel& model,
                      const ProfileTable& profiles, const JitOptions& options,
                      JitPlan plan) {
  plan.deployments.clear();
  plan.deployments.reserve(mlp.path.size());
  for (std::size_t i = 0; i < mlp.path.size(); ++i) {
    const NodeId node = mlp.path[i];
    // Expected trigger: the latest parent trigger plus its learned
    // parent-to-child invoke gap.
    const std::optional<sim::Duration> invocation = latest_parent(
        mlp, i, model, plan, [&](const Deployment& p) {
          return p.max_delay + profiles.invoke_gap(p.node, node, options.fallbacks);
        });
    Deployment d;
    if (!invocation) {
      d.node = node;
    } else {
      d = deploy_before(node, *invocation, profiles, options);
      d.max_delay = *invocation;
    }
    plan.deployments.push_back(d);
  }
  return plan;
}

}  // namespace xanadu::core
