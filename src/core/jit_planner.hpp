#pragma once

// Just-In-Time deployment planning -- paper Section 3.2.2, Algorithm 2.
//
// Given the estimated most-likely path and the learned function profiles,
// the planner builds a deployment timeline: for every MLP node, the delay
// (relative to request arrival) at which its sandbox provisioning should
// start so that the worker becomes ready just as the node's trigger arrives.
//
// Explicit chains: a child can only be invoked by the orchestrator after its
// parents complete, so the expected invocation time of a node is the maximum
// over its MLP parents of the parents' expected completion times
// (node.maxDelay in the paper's listing).  The root deploys immediately and
// completes after its cold response time; each child deploys at
// (parents' completion - its own startup time) and completes warm.
//
// Implicit chains: children are invoked directly by their parents' runtime,
// so parent completion times are meaningless; the planner instead uses the
// learned trigger-to-trigger invoke gaps along the path.
//
// A safety margin makes workers ready slightly early, absorbing estimation
// error at a small pre-use idle cost (visible in C_R_memory as the ~2.2x
// JIT-vs-cold factor of Figure 13b).
//
// The planners read only the MLP's path.  Each takes a spent plan to refill,
// so a caller that passes its previous plan back in plans without
// allocating.

#include <vector>

#include "core/branch_model.hpp"
#include "core/mlp.hpp"
#include "core/profile.hpp"
#include "sim/time.hpp"

namespace xanadu::core {

struct Deployment {
  NodeId node{};
  /// Delay after request arrival at which provisioning should start.
  sim::Duration deploy_delay = sim::Duration::zero();
  /// Expected trigger time of the node (diagnostic).
  sim::Duration expected_invocation = sim::Duration::zero();
  /// The listing's node.maxDelay, which the node's MLP children are planned
  /// from: its expected completion (explicit plans) or its expected trigger
  /// (implicit plans, where children follow their parent's trigger).
  sim::Duration max_delay = sim::Duration::zero();
};

struct JitPlan {
  std::vector<Deployment> deployments;  // MLP order (parents first)
};

struct JitOptions {
  /// Workers are scheduled to be ready this long before the expected
  /// invocation; absorbs most provisioning jitter (the container profile's
  /// ~120 ms stddev) at a small pre-use idle cost.  A late arrival costs a
  /// short partial wait rather than a full cold start.
  sim::Duration safety_margin = sim::Duration::from_millis(150);
  ProfileFallbacks fallbacks;
};

/// Algorithm 2 (explicit workflows): completion-time recurrence over the MLP.
/// `storage` is a spent plan whose buffer is refilled.
[[nodiscard]] JitPlan plan_explicit(const MlpResult& mlp, const BranchModel& model,
                                    const ProfileTable& profiles,
                                    const JitOptions& options = {},
                                    JitPlan storage = {});

/// Implicit-chain variant: the cold/warm response estimates of lines 5 and
/// 10 are replaced by learned parent-to-child invoke gaps.
[[nodiscard]] JitPlan plan_implicit(const MlpResult& mlp, const BranchModel& model,
                                    const ProfileTable& profiles,
                                    const JitOptions& options = {},
                                    JitPlan storage = {});

}  // namespace xanadu::core
