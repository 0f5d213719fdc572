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
// A policy learns only from the hooks below, reads the platform through the
// engine's public accessors (now(), warm_count, provisioning_count,
// function_id), and acts only through the engine's public policy-facing
// operations; the friend ban in src/platform (xan_lint) keeps anyone from
// tunnelling past that boundary.

#include "common/ids.hpp"
#include "platform/request.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

using common::FunctionId;

class PlatformEngine;
struct RequestContext;

/// Every hook receives the engine, through which a policy reads and acts.
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
