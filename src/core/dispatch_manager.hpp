#pragma once

// DispatchManager: Xanadu's top-level facade (paper Section 4, Figure 11).
//
// Bundles the pieces a deployment needs -- virtual-time simulator, cluster,
// platform engine, speculation policy -- behind one object, mirroring the
// paper's Dispatch Manager (function resource allocator + reverse proxy +
// metrics engine + branch detector + speculation engine).  Baseline
// platforms (Knative-like, OpenWhisk-like, ASF/ADF emulations, naive
// prewarm-all) are built through the same class so comparisons share
// identical cluster mechanics, as in the paper's evaluation setup.

#include <map>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "workflow/state_language.hpp"
#include "core/xanadu_policy.hpp"
#include "metrics/cost.hpp"
#include "platform/baseline_policies.hpp"
#include "platform/engine.hpp"
#include "sim/simulator.hpp"

namespace xanadu::core {

/// Which control plane a DispatchManager instance runs.
enum class PlatformKind {
  XanaduCold,        // Xanadu request path, speculation off
  XanaduSpeculative, // onset-time speculative deployment
  XanaduJit,         // just-in-time deployment
  KnativeLike,
  OpenWhiskLike,
  AsfLike,
  AdfLike,
  PrewarmAll,        // naive whole-workflow pre-provisioning baseline
  WarmPool,          // fixed per-function warm pools (arXiv:1903.12221)
  MpcHorizon,        // rolling-horizon MPC provisioning (arXiv:2508.07640)
};

[[nodiscard]] const char* to_string(PlatformKind kind);

/// The overhead calibration a DispatchManager of `kind` uses when no
/// explicit override is given.  Exposed so callers (the CLI, benches) can
/// tweak one knob -- e.g. enable the control bus for fault injection --
/// without re-deriving the preset.
[[nodiscard]] platform::PlatformCalibration preset_calibration(
    PlatformKind kind);

struct DispatchManagerOptions {
  PlatformKind kind = PlatformKind::XanaduJit;
  std::uint64_t seed = 42;
  cluster::ClusterOptions cluster;
  /// Applied to the Xanadu kinds only (mode is derived from `kind`).
  XanaduOptions xanadu;
  /// Applied when kind == WarmPool.
  platform::PoolPolicyOptions pool;
  /// Applied when kind == MpcHorizon.
  platform::MpcHorizonOptions mpc;
  /// Overrides the preset calibration when set.
  std::optional<platform::PlatformCalibration> calibration;
  /// Fault injection for the run (all rates default to zero = none).  When
  /// any class is enabled, `faults` and `recovery` are copied into the
  /// platform calibration.
  sim::FaultPlanOptions faults;
  platform::RecoveryOptions recovery;
};

class DispatchManager {
 public:
  explicit DispatchManager(DispatchManagerOptions options);

  /// Registers a workflow DAG and returns its handle.
  common::WorkflowId deploy(workflow::WorkflowDag dag);

  /// Parses a state-language document (paper Listing 1) and deploys it as a
  /// named workflow.  The name can later be used with invoke_named().
  common::Result<common::WorkflowId> deploy_document(const std::string& document,
                                                     const std::string& name);

  /// Looks up a workflow deployed via deploy_document by name; returns an
  /// invalid id when unknown.
  [[nodiscard]] common::WorkflowId find_named(const std::string& name) const;

  /// Submits one request to a named workflow and runs until completion.
  /// Unknown names are an expected failure mode (names come from user
  /// input), reported through the Result instead of an exception.
  common::Result<platform::RequestResult> try_invoke_named(
      const std::string& name);

  /// Submits one request to a named workflow and runs until completion.
  /// Throws std::invalid_argument for unknown names.  Implemented on top of
  /// try_invoke_named().
  platform::RequestResult invoke_named(const std::string& name);

  /// Submits one request and runs the simulation until it completes.
  platform::RequestResult invoke(common::WorkflowId workflow);

  /// Submits one request at the current virtual time without running the
  /// simulator (for open-loop arrival experiments).
  common::RequestId submit(common::WorkflowId workflow,
                           platform::CompletionCallback on_complete);

  /// Kills every warm worker: the next request meets fully cold conditions.
  void force_cold_start();

  /// Advances virtual time past the keep-alive window so that workers are
  /// reclaimed naturally (used by keep-alive experiments).
  void idle_for(sim::Duration duration);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] platform::PlatformEngine& engine() { return *engine_; }
  [[nodiscard]] cluster::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const cluster::ResourceLedger& ledger() const {
    return cluster_->ledger();
  }
  /// Xanadu policy, or nullptr for baseline kinds.
  [[nodiscard]] XanaduPolicy* xanadu_policy() { return xanadu_policy_.get(); }
  /// MPC policy, or nullptr unless kind == MpcHorizon.
  [[nodiscard]] platform::MpcHorizonPolicy* mpc_policy() {
    return mpc_policy_.get();
  }
  [[nodiscard]] PlatformKind kind() const { return options_.kind; }
  /// Faults injected so far (all zero when fault injection is off).
  [[nodiscard]] const sim::FaultCounters& fault_counters() const {
    return engine_->fault_plan().counters();
  }
  /// What the engine's recovery machinery did about them.
  [[nodiscard]] const platform::RecoveryStats& recovery_stats() const {
    return engine_->recovery_stats();
  }
  /// Per-subsystem race-detector probes, populated at construction.  Attach
  /// to the simulator (set_probe_registry) to localise tie-race divergence.
  [[nodiscard]] const sim::ProbeRegistry& probes() const { return probes_; }

 private:
  DispatchManagerOptions options_;
  std::map<std::string, common::WorkflowId> named_workflows_;
  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<XanaduPolicy> xanadu_policy_;
  std::unique_ptr<platform::PrewarmAllPolicy> prewarm_policy_;
  std::unique_ptr<platform::PoolPolicy> pool_policy_;
  std::unique_ptr<platform::MpcHorizonPolicy> mpc_policy_;
  std::unique_ptr<platform::PlatformEngine> engine_;
  sim::ProbeRegistry probes_;
};

}  // namespace xanadu::core
