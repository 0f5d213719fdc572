#pragma once

// ProvisionPolicy: the hook interface through which a control plane decides
// WHEN sandboxes are provisioned.
//
// The engine always provisions on-trigger as a fallback (a triggered node
// with no ready worker starts a cold provision); policies reduce cold starts
// by prewarming ahead of triggers.  Baseline platforms use NullPolicy (pure
// on-trigger behaviour) or PrewarmAllPolicy (the naive whole-workflow
// pre-deployment of paper Section 1, Observation 3).  Xanadu's speculative
// and JIT policies live in src/core; the pool and MPC-horizon competitor
// policies live in platform/baseline_policies.hpp.
//
// Policies observe the platform through PolicyView, a narrow read-only
// observation surface (arrival counts, warm-pool occupancy, online profile
// estimates, virtual time).  The view deliberately exposes no engine
// internals: policies act only through the engine's public policy-facing
// operations, and the friend ban in src/platform (xan_lint) keeps
// anyone from tunnelling past that boundary.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/ids.hpp"
#include "platform/request.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

using common::FunctionId;

class PlatformEngine;
struct RequestContext;

/// Read-only observation surface handed to provisioning policies.
///
/// The engine owns the single instance, feeds it at request-lifecycle points
/// (arrival, worker ready, execution end, completion), and passes policies a
/// `const` reference -- const-ness is the write barrier.  Occupancy queries
/// delegate to engine-installed callbacks so the view never holds platform
/// state of its own beyond plain counters; everything here is arithmetic
/// folded in event order, so observing through the view can never perturb a
/// replay digest.
class PolicyView {
 public:
  /// Online per-function estimates folded from platform-side observations:
  /// the dispatch daemon's honest view of sandbox startup time and function
  /// execution time (running means, no decay).
  struct FunctionEstimate {
    std::uint64_t provision_samples = 0;
    double mean_provision_ms = 0.0;
    std::uint64_t exec_samples = 0;
    double mean_exec_ms = 0.0;
  };

  using Clock = std::function<sim::TimePoint()>;
  using CountQuery = std::function<std::size_t(FunctionId)>;

  // -- Engine-facing wiring (policies only ever see `const PolicyView&`) ----

  /// Installs the clock and the occupancy callbacks.  Called once by the
  /// engine at construction; the callables must outlive the view.
  void bind(Clock now, CountQuery warm, CountQuery provisioning);
  void record_arrival(WorkflowId workflow, sim::TimePoint at);
  void record_worker_ready(FunctionId fn, sim::Duration provision_latency);
  void record_execution(FunctionId fn, sim::Duration exec_duration);
  void record_completion(bool failed);

  // -- Policy-facing observations -------------------------------------------

  /// Current virtual time.
  [[nodiscard]] sim::TimePoint now() const {
    return now_ ? now_() : sim::TimePoint{};
  }
  /// Requests submitted so far, platform-wide / per workflow.
  [[nodiscard]] std::uint64_t total_arrivals() const { return total_arrivals_; }
  [[nodiscard]] std::uint64_t arrivals(WorkflowId workflow) const;
  /// Requests finished so far (completed cleanly / failed over).
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  /// Idle warm workers pooled for `fn` right now.
  [[nodiscard]] std::size_t warm_count(FunctionId fn) const;
  /// In-flight provisioning operations (sandbox builds plus inbound
  /// rebinds) covering `fn` right now.
  [[nodiscard]] std::size_t provisioning_count(FunctionId fn) const;
  /// Online startup/execution estimate, or nullptr before any observation.
  [[nodiscard]] const FunctionEstimate* estimate(FunctionId fn) const;
  /// Arrivals of `workflow` whose timestamp lies in (now - window, now].
  /// Exact while the retained arrival history covers the window (the view
  /// keeps the most recent kArrivalHistory timestamps per workflow).
  [[nodiscard]] std::uint64_t arrivals_in_window(WorkflowId workflow,
                                                 sim::Duration window) const;
  /// Rolling-window arrival-rate estimate (requests per second) for
  /// `workflow`, from arrivals_in_window.  0 for an empty window.
  [[nodiscard]] double arrival_rate_per_sec(WorkflowId workflow,
                                            sim::Duration window) const;

  /// Per-workflow arrival timestamps retained for windowed rate estimates.
  static constexpr std::size_t kArrivalHistory = 256;

 private:
  Clock now_;
  CountQuery warm_;
  CountQuery provisioning_;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t failures_ = 0;
  struct WorkflowArrivals {
    std::uint64_t total = 0;
    /// Most recent arrival times, oldest first, capped at kArrivalHistory.
    std::deque<sim::TimePoint> recent;
  };
  std::unordered_map<WorkflowId, WorkflowArrivals> arrivals_;
  std::unordered_map<FunctionId, FunctionEstimate> estimates_;
};

/// Every hook receives the engine; a policy reads the observation surface
/// through `engine.policy_view()`.
class ProvisionPolicy {
 public:
  virtual ~ProvisionPolicy() = default;

  /// A workflow request has arrived; fires before any node is triggered.
  virtual void on_request_submitted(PlatformEngine& engine, RequestContext& ctx);

  /// A node's dependencies resolved and its dispatch is in flight.
  virtual void on_node_triggered(PlatformEngine& engine, RequestContext& ctx,
                                 NodeId node);

  /// A node began executing on a worker (cold/warm outcome is known).
  virtual void on_node_exec_start(PlatformEngine& engine, RequestContext& ctx,
                                  NodeId node);

  /// A worker finished provisioning.  `provision_latency` is the full
  /// sandbox startup duration the dispatch daemon observed -- the honest
  /// platform-side signal behind the profile's "worker startup time"
  /// estimate (requests themselves only see the residual wait when
  /// provisioning overlapped useful work).  Fires only for builds that
  /// actually complete: a worker crashed or failed while provisioning never
  /// reaches this hook (the recovery layer sees on_build_failed instead).
  virtual void on_worker_ready(PlatformEngine& engine, WorkflowId workflow,
                               NodeId node, sim::Duration provision_latency);

  /// A node finished executing.
  virtual void on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                                 NodeId node);

  /// An XOR-cast parent resolved which child the request actually takes.
  virtual void on_xor_resolved(PlatformEngine& engine, RequestContext& ctx,
                               NodeId parent, NodeId chosen);

  /// A node was skipped (all in-edges resolved not-taken).
  virtual void on_node_skipped(PlatformEngine& engine, RequestContext& ctx,
                               NodeId node);

  /// The request finished; the policy may fill result.speculation.
  virtual void on_request_completed(PlatformEngine& engine, RequestContext& ctx,
                                    RequestResult& result);
};

/// Pure on-trigger provisioning (Xanadu Cold / Knative / OpenWhisk / cloud).
class NullPolicy final : public ProvisionPolicy {};

/// Naive whole-workflow pre-deployment: provisions a worker for every node
/// the moment the request arrives, regardless of which branches will run.
/// A node already covered by a warm worker or an in-flight provision is
/// skipped (engine.prewarm() vetoes it).
class PrewarmAllPolicy final : public ProvisionPolicy {
 public:
  void on_request_submitted(PlatformEngine& engine, RequestContext& ctx) override;
};

}  // namespace xanadu::platform
