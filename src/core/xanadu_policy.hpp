#pragma once

// XanaduPolicy: the speculation engine (paper Sections 3.1-3.4).
//
// The policy plugs into the platform engine's request lifecycle and
// implements Xanadu's three provisioning modes:
//
//   Off          "Xanadu Cold" -- pure on-trigger provisioning,
//   Speculative  estimate the MLP and provision every path sandbox at the
//                onset of the workflow,
//   Jit          estimate the MLP, build the Algorithm-2 timeline and
//                provision each sandbox just ahead of its expected trigger.
//
// Orthogonally, the policy learns:
//   * the branch model (Algorithm 3) -- from the workflow schema for
//     explicit chains, or purely from parent-id request headers for
//     implicit chains,
//   * per-function EMA profiles (cold/warm response, startup time) and
//     per-edge invoke gaps (Section 3.2.2).
//
// Prediction misses: when an XOR parent resolves to a child other than the
// predicted one, the policy cancels all planned-but-unfired deployments
// (Section 3.2.2) and, per the paper, discards speculatively provisioned
// sandboxes that the actual path can no longer use.  The aggressiveness
// parameter (Section 3.2.1) bounds how far down the MLP resources are
// provisioned.  MissPolicy::Replan implements the paper's future-work
// extension (Section 7): after a miss the MLP is re-estimated from the
// chosen branch and speculation resumes on the new path.

#include <vector>

#include "common/id_table.hpp"
#include "core/branch_model.hpp"
#include "core/jit_planner.hpp"
#include "core/metadata_store.hpp"
#include "core/mlp.hpp"
#include "core/profile.hpp"
#include "platform/engine.hpp"

namespace xanadu::core {

enum class SpeculationMode { Off, Speculative, Jit };
enum class ChainKnowledge { Explicit, Implicit };
enum class MissPolicy { Stop, Replan };

[[nodiscard]] const char* to_string(SpeculationMode mode);

struct XanaduOptions {
  SpeculationMode mode = SpeculationMode::Jit;
  ChainKnowledge knowledge = ChainKnowledge::Explicit;
  MissPolicy miss_policy = MissPolicy::Stop;
  /// Fraction of the MLP depth to pre-provision, in (0, 1].  Section 3.2.1's
  /// provider-side deployment-aggressiveness knob.
  double aggressiveness = 1.0;
  /// Section 7 extension: on a prediction miss, re-bind idle sandboxes that
  /// were speculatively deployed for the wrong branch to architecture-
  /// compatible functions on the branch actually taken, instead of
  /// discarding them.
  bool reuse_workers_on_miss = false;
  JitOptions jit;
  MlpOptions mlp;
};

class XanaduPolicy final : public platform::ProvisionPolicy {
 public:
  explicit XanaduPolicy(XanaduOptions options);

  // ProvisionPolicy hooks -------------------------------------------------
  void on_request_submitted(platform::PlatformEngine& engine,
                            platform::RequestContext& ctx) override;
  void on_node_triggered(platform::PlatformEngine& engine,
                         platform::RequestContext& ctx, NodeId node) override;
  void on_node_exec_start(platform::PlatformEngine& engine,
                          platform::RequestContext& ctx, NodeId node) override;
  void on_worker_ready(platform::PlatformEngine& engine,
                       common::WorkflowId workflow, NodeId node,
                       sim::Duration provision_latency) override;
  void on_node_completed(platform::PlatformEngine& engine,
                         platform::RequestContext& ctx, NodeId node) override;
  void on_xor_resolved(platform::PlatformEngine& engine,
                       platform::RequestContext& ctx, NodeId parent,
                       NodeId chosen) override;
  void on_node_skipped(platform::PlatformEngine& engine,
                       platform::RequestContext& ctx, NodeId node) override;
  void on_request_completed(platform::PlatformEngine& engine,
                            platform::RequestContext& ctx,
                            platform::RequestResult& result) override;

  // Introspection ----------------------------------------------------------
  [[nodiscard]] const XanaduOptions& options() const { return options_; }
  /// The learned model for a workflow (nullptr before its first request).
  [[nodiscard]] const BranchModel* model(common::WorkflowId id) const;
  [[nodiscard]] const ProfileTable* profiles(common::WorkflowId id) const;
  /// Latest MLP estimate for a workflow (empty before the first request).
  [[nodiscard]] MlpResult current_mlp(common::WorkflowId id) const;

  // -- Metadata persistence (paper Section 4: "backing everything up on the
  //    Metadata DB for persistence") ---------------------------------------

  /// Writes a workflow's learned state (branch model + profiles) to the
  /// store under `key`.  Returns false if the workflow has no state yet.
  bool persist(common::WorkflowId id, MetadataStore& store,
               const std::string& key) const;

  /// Restores a workflow's learned state from the store, replacing whatever
  /// the policy currently knows.  `dag` is the workflow's DAG.  Returns an
  /// error when the stored document is corrupt or names a node outside
  /// `dag`; false-like empty optional semantics are folded into the bool:
  /// true when state was installed.
  [[nodiscard]] common::Result<bool> restore(common::WorkflowId id,
                                             const workflow::WorkflowDag& dag,
                                             const MetadataStore& store,
                                             const std::string& key);

 private:
  struct WorkflowState {
    BranchModel model;
    ProfileTable profiles;
    /// Estimate and plan scratch, refilled at every request's submission and
    /// every replan of the workflow so that their buffers keep their
    /// capacity.  Read only right after they are refilled.
    MlpResult mlp;
    JitPlan plan;
    /// The plan's deployments the engine is handed.
    std::vector<platform::PlannedPrewarm> prewarms;
  };

  /// Per-request speculation state, owned by the request's context
  /// (RequestContext::policy_state).  Made for a context's first request and
  /// reset at each later submission, so its vectors keep their capacity.
  struct RequestState final : platform::PolicyRequestState {
    /// Clears the state for a request of `node_count` nodes.
    void reset(std::size_t node_count);

    /// What speculation knows about one node of the request's DAG.
    struct NodeMark {
      /// On the request's MLP: the full estimate (before the aggressiveness
      /// cut) plus anything a replan added.
      bool on_mlp = false;
      /// A speculative deployment was issued for the node.
      bool prewarmed = false;
      /// For a conditional parent on the MLP, the child predicted to be
      /// taken; invalid otherwise.
      NodeId predicted_child{};
    };

    /// The path speculation acts on: the estimate's aggressiveness cut,
    /// extended by replans.
    std::vector<NodeId> path;
    /// Indexed by NodeId value.
    std::vector<NodeMark> nodes;

    [[nodiscard]] NodeMark& mark(NodeId node) { return nodes[node.value()]; }
    /// Adds `estimate`'s nodes and predictions to the request's MLP, and
    /// the new ones among the first `cut` path nodes to `path`.
    void adopt(const MlpResult& estimate, std::size_t cut);
  };

  [[nodiscard]] static RequestState* state(platform::RequestContext& ctx) {
    return static_cast<RequestState*>(ctx.policy_state.get());
  }
  WorkflowState& workflow_state(platform::PlatformEngine& engine,
                                platform::RequestContext& ctx);
  /// Provisions (Speculative) or hands the engine the Algorithm-2 timeline
  /// (Jit) for `target.path`.
  void deploy(platform::PlatformEngine& engine, platform::RequestContext& ctx,
              WorkflowState& wf, RequestState& rs, const MlpResult& target);
  /// MissPolicy::Replan: re-estimates the MLP from the branch the request
  /// took and speculates on it.
  void replan(platform::PlatformEngine& engine, platform::RequestContext& ctx,
              WorkflowState& wf, RequestState& rs, NodeId chosen);
  [[nodiscard]] std::size_t aggressiveness_cut(std::size_t path_length) const;

  XanaduOptions options_;
  /// Learned state per workflow that has seen a request (or a restore).  A
  /// WorkflowState& stays valid while other workflows join the table.
  common::IdTable<common::WorkflowId, WorkflowState> workflows_;
};

}  // namespace xanadu::core
