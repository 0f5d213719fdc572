#pragma once

// Per-platform overhead calibrations.
//
// Every platform in the reproduction (Xanadu's own modes, Knative-like,
// OpenWhisk-like, and the ASF/ADF cloud emulations) runs on the same DAG
// execution engine; what distinguishes them is WHEN they provision sandboxes
// (the ProvisionPolicy) and the overhead constants below.  The constants are
// calibrated from the paper's own reported numbers; see DESIGN.md Section 1
// and the comments on each preset.

#include <optional>
#include <string>

#include "cluster/sandbox.hpp"
#include "sim/fault_plan.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

/// Control-bus (Kafka stand-in) settings; see message_bus.hpp.
struct ControlBusOptions {
  /// Route Dispatch Manager -> Dispatch Daemon provisioning commands over
  /// the message bus (paper Figure 11); each command pays the bus latency
  /// before the host daemon starts building the sandbox.
  bool enabled = false;
  sim::Duration latency = sim::Duration::from_millis(3);
  sim::Duration jitter = sim::Duration::zero();
};

/// How the platform reacts to injected faults.  Defaults model the paper's
/// deployment (commands are retried, failed builds re-placed); disabling
/// recovery strands requests, which the fault ablation quantifies.
struct RecoveryOptions {
  /// Master switch.  With recovery off the engine injects faults but never
  /// retries, re-provisions, or fails requests over -- it simply reports
  /// what stranded.  The retry limits and backoffs are constants beside
  /// their use (provision_pipeline.cpp, recovery.cpp).
  bool enabled = true;
};

struct PlatformCalibration {
  std::string name = "platform";

  /// Reverse-proxy / request-forwarding latency paid on every function
  /// invocation (warm or cold).
  sim::Duration dispatch_latency = sim::Duration::from_millis(25);

  /// Extra per-step delay of an external workflow orchestrator (the cloud
  /// platforms' state-machine engines; zero for direct chaining).
  sim::Duration orchestration_step = sim::Duration::zero();

  /// Platform-pipeline latency added on top of the raw sandbox provisioning
  /// latency (scheduler hops, image resolution, pod wiring, ...).  Most of
  /// this pipeline is container-specific (image pulls, network namespaces);
  /// lightweight sandboxes pay the reduced process/isolate extras.
  sim::Duration provision_extra = sim::Duration::zero();
  sim::Duration provision_extra_process = sim::Duration::zero();
  sim::Duration provision_extra_isolate = sim::Duration::zero();

  [[nodiscard]] sim::Duration provision_extra_for(
      workflow::SandboxKind kind) const {
    switch (kind) {
      case workflow::SandboxKind::Container: return provision_extra;
      case workflow::SandboxKind::Process: return provision_extra_process;
      case workflow::SandboxKind::Isolate: return provision_extra_isolate;
    }
    return provision_extra;
  }

  /// Standard deviation of jitter applied to each dispatch.
  sim::Duration overhead_jitter = sim::Duration::from_millis(4);

  /// Delay between a worker finishing provisioning and a waiting request
  /// actually executing on it (daemon -> manager -> proxy signalling).  The
  /// worker sits warm-idle for this long, which is why even pure on-trigger
  /// platforms accrue a little pre-use idle memory.
  sim::Duration worker_handoff = sim::Duration::from_millis(60);

  /// Cost of re-binding an idle warm sandbox to a different function of the
  /// same architecture (code reload, not a full environment build).  Used by
  /// the worker-reuse miss extension (paper Section 7, future work).
  sim::Duration rebind_latency = sim::Duration::from_millis(120);

  /// Idle time after which a warm worker is reclaimed.
  sim::Duration keep_alive = sim::Duration::from_minutes(10);

  /// Maximum number of live (warm + busy + provisioning) container workers
  /// the platform sustains; -1 = unlimited.  Models OpenWhisk standalone's
  /// limited container pool (paper Section 2.3: the sudden latency increase
  /// at chain length 5).
  int max_live_workers = -1;

  /// Latency paid to evict a warm worker when the live-worker cap forces a
  /// replacement (serialized docker rm + re-create contention).
  sim::Duration eviction_penalty = sim::Duration::zero();

  /// Dispatch Manager <-> Dispatch Daemon communication (Kafka stand-in).
  ControlBusOptions control_bus;

  /// Fault injection (all rates default to zero = no faults) and the
  /// platform's recovery behaviour when faults do fire.
  sim::FaultPlanOptions faults;
  RecoveryOptions recovery;

  /// Optional container-profile override for this platform (the cloud
  /// platforms run Firecracker-class microVMs, far faster than the Docker
  /// defaults the open-source platforms use).
  std::optional<cluster::SandboxProfile> container_profile;
};

/// Xanadu's own request path with no speculation ("Xanadu Cold").
/// Calibrated so a single container function sees ~4.2-4.4 s of cold
/// overhead, matching Figure 12a's chain-length-1 values.
[[nodiscard]] PlatformCalibration xanadu_calibration();

/// Knative-like: chaining-agnostic, heaviest provisioning pipeline
/// (activator + autoscaler + pod start).  Figure 12a: ~7.3 s per hop,
/// 76.34 s of overhead at chain length 10.
[[nodiscard]] PlatformCalibration knative_like_calibration();

/// OpenWhisk-like (standalone): lighter pipeline than Knative (~4.4 s per
/// hop; 44.38 s at length 10) plus the limited live-container pool that
/// produces the chain-length-5 jump of Figure 4.
[[nodiscard]] PlatformCalibration openwhisk_like_calibration();

/// AWS-Step-Functions-like cloud emulation: microVM sandboxes (~430 ms cold
/// per function, Figure 3), ~10 min keep-alive (Figure 5), stable latency.
[[nodiscard]] PlatformCalibration asf_like_calibration();

/// Azure-Durable-Functions-like cloud emulation: ~350 ms cold per function,
/// ~20 min keep-alive, noticeably higher variance (Section 2.3 notes ADF's
/// instability).
[[nodiscard]] PlatformCalibration adf_like_calibration();

}  // namespace xanadu::platform
