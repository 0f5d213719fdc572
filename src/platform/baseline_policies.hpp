#pragma once

// Competitor provisioning policies for the policy lab (ISSUE 8 tentpole).
//
// Both policies are self-contained control planes written purely against
// their own hooks and the engine's public accessors and policy-facing
// operations -- no engine internals, no platform state of their own beyond
// what any external controller could keep.  They exist so the tournament
// benchmark (bench/policy_tournament) can pit Xanadu's chain-aware
// speculation against the two standard function-granular alternatives from
// the literature:
//
//   * PoolPolicy        -- fixed-size per-function warm pools with
//                          deterministic refill, after the "pool of
//                          pre-warmed containers" design of Lin & Glikson,
//                          "Mitigating Cold Starts in Serverless Platforms:
//                          A Pool-Based Approach" (arXiv:1903.12221).
//   * MpcHorizonPolicy  -- rolling-horizon model-predictive control: a
//                          windowed arrival-rate estimate feeds a per-tick
//                          provision/evict schedule, in the spirit of
//                          Nguyen et al.'s MPC-based resource provisioning
//                          for serverless chains (arXiv:2508.07640).
//
// Neither policy draws randomness: every decision is arithmetic over what
// the hooks and accessors report, so both are trivially replay-deterministic
// and xan_lint-clean.

#include <cstddef>
#include <cstdint>
#include <deque>

#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "platform/policy.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

struct PoolPolicyOptions {
  /// Warm workers to keep pooled per function (in-flight provisions count
  /// toward the target, so a refill never over-provisions).
  std::size_t pool_size = 2;
};

/// Fixed per-function warm pools (Lin & Glikson, arXiv:1903.12221): on every
/// arrival, and again whenever an execution consumes a pooled worker, top
/// each function of the workflow back up to `pool_size` warm-or-provisioning
/// workers, and evict down to `pool_size` when executions park surplus
/// workers.  Chain-oblivious by design -- every node of every seen workflow
/// gets the same pool depth regardless of branch probabilities.
class PoolPolicy final : public ProvisionPolicy {
 public:
  explicit PoolPolicy(PoolPolicyOptions options = {}) : options_(options) {}

  void on_request_submitted(PlatformEngine& engine, RequestContext& ctx) override;
  void on_node_exec_start(PlatformEngine& engine, RequestContext& ctx,
                          NodeId node) override;
  void on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                         NodeId node) override;

  [[nodiscard]] const PoolPolicyOptions& options() const { return options_; }

 private:
  /// Tops the node's function up to pool_size warm-or-provisioning workers.
  /// `borrowed` workers are executing right now but will re-park into this
  /// pool, so they count as coverage.
  void refill(PlatformEngine& engine, WorkflowId workflow, NodeId node,
              std::size_t borrowed = 0);

  PoolPolicyOptions options_;
};

struct MpcHorizonOptions {
  /// Re-solve period: the schedule is recomputed at most once per horizon
  /// tick (lazily, on the first lifecycle hook past the tick boundary --
  /// the policy schedules no events of its own, so an idle platform drains).
  sim::Duration horizon = sim::Duration::from_millis(2000);
  /// Arrival-rate estimation window (rolling, over the policy's own arrival
  /// history).
  sim::Duration window = sim::Duration::from_millis(10000);
};

/// Rolling-horizon MPC provisioning (after Nguyen et al., arXiv:2508.07640):
/// each horizon tick solves, per function, a Little's-law demand target
///   target = min(ceil(lambda_wf * (exec + provision) * 1.2), 4)
/// from the windowed arrival-rate estimate and its online exec/provision
/// estimates, then provisions toward the target or evicts the warm workers
/// above it.  The policy learns both from its own hooks: arrivals on
/// submission, sandbox startup on worker ready, execution time on node
/// completion.  Purely arithmetic -- the estimator draws no randomness, so
/// replays are bit-identical by construction.
class MpcHorizonPolicy final : public ProvisionPolicy {
 public:
  /// Per-function running means (no decay) of observed sandbox startup
  /// time and execution time.
  struct Estimate {
    std::uint64_t provision_samples = 0;
    double mean_provision_ms = 0.0;
    std::uint64_t exec_samples = 0;
    double mean_exec_ms = 0.0;
  };

  explicit MpcHorizonPolicy(MpcHorizonOptions options = {})
      : options_(options) {}

  void on_request_submitted(PlatformEngine& engine, RequestContext& ctx) override;
  void on_worker_ready(PlatformEngine& engine, WorkflowId workflow, NodeId node,
                       sim::Duration provision_latency) override;
  void on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                         NodeId node) override;

  [[nodiscard]] const MpcHorizonOptions& options() const { return options_; }
  /// Horizon ticks solved so far (tournament sanity counter).
  [[nodiscard]] std::uint64_t solves() const { return solves_; }
  /// Arrivals of `workflow` in (now - window, now] per second of window; 0
  /// for a non-positive window.  Exact while the last kArrivalHistory
  /// arrivals cover the window.
  [[nodiscard]] double arrival_rate_per_sec(WorkflowId workflow,
                                            sim::TimePoint now) const;
  /// Online estimate for `fn`, or nullptr before any observation.
  [[nodiscard]] const Estimate* estimate(FunctionId fn) const;

 private:
  /// Arrival timestamps retained per workflow for the windowed rate.
  static constexpr std::size_t kArrivalHistory = 256;

  struct SeenWorkflow {
    std::size_t node_count = 0;
    /// The most recent kArrivalHistory arrival times, oldest first.
    std::deque<sim::TimePoint> arrivals;
  };

  /// Recomputes the provision/evict schedule if a horizon tick has passed.
  void maybe_solve(PlatformEngine& engine);
  void solve(PlatformEngine& engine);

  MpcHorizonOptions options_;
  /// Workflows observed so far; the per-tick solve walks them (and their
  /// nodes) in id order, which is replay-stable.
  common::IdTable<WorkflowId, SeenWorkflow> seen_workflows_;
  common::IdTable<FunctionId, Estimate> estimates_;
  sim::TimePoint next_tick_{};
  std::uint64_t solves_ = 0;
};

}  // namespace xanadu::platform
