#pragma once

// ProvisionPipeline: the sandbox-provisioning subsystem of the platform.
//
// Owns the PendingProvision slots (one per in-flight sandbox build), the
// Dispatch-Daemon command path over the control bus (publish, ack,
// exponential-backoff re-send when faults can drop commands), provision
// redirects (the generic-environment reuse of paper Section 7), and the
// live-worker throttle interaction: a provision that would exceed
// max_live_workers first evicts the oldest warm worker and carries the
// eviction penalty into its own latency.
//
// The pipeline does not know about requests.  Waiters are opaque
// (RequestId, NodeId) pairs handed back to the engine through Hooks when a
// build completes or fails; the engine decides what serving a waiter means.
//
// A build is filed under the function its worker is bound to, and found
// through the live worker: the pipeline's events carry only the worker id,
// so a redirect (which rebinds the worker) needs no bookkeeping of its own.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "platform/calibration.hpp"
#include "platform/message_bus.hpp"
#include "platform/request.hpp"
#include "platform/warm_pool.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "workflow/function_spec.hpp"

namespace xanadu::platform {

/// One (request, node) pair waiting on an in-flight provision, FIFO.
using ProvisionWaiter = std::pair<RequestId, NodeId>;
using ProvisionWaiters = std::deque<ProvisionWaiter>;

/// One in-flight sandbox build.
struct PendingProvision {
  WorkerId worker{};
  EventId ready_event{};
  ProvisionWaiters waiters;
  /// Extra platform latency carried by the daemon command.
  sim::Duration extra = sim::Duration::zero();
  /// True once the daemon received the command and started the build;
  /// duplicate or retried commands for an acked provision are ignored.
  bool acked = false;
  /// True once redirect() moved the build to another function.
  bool redirected = false;
  /// Command re-sends so far (ack-timeout recovery).
  unsigned attempts = 0;
  /// Pending ack-timeout event, if armed.
  EventId retry_event{};
};

class ProvisionPipeline {
 public:
  struct Hooks {
    /// A build completed: the engine finishes provisioning, notifies the
    /// policy, and serves (or parks for) the waiters.
    std::function<void(WorkerId worker, ProvisionWaiters waiters)> on_ready;
    /// A build was abandoned (injected failure, or command retries
    /// exhausted): the engine routes the waiters through recovery.
    std::function<void(const ProvisionWaiters& waiters)> on_build_failed;
  };

  /// Borrows everything; all references must outlive the pipeline.  The
  /// fault plan and recovery stats are the engine's members (the plan is
  /// re-seeded in the engine constructor body, after this pipeline is
  /// built -- holding a reference keeps that safe).
  ProvisionPipeline(sim::Simulator& sim, cluster::Cluster& cluster,
                    const PlatformCalibration& calib, sim::FaultPlan& fault_plan,
                    WarmPoolManager& warm_pool, RecoveryStats& recovery_stats,
                    Hooks hooks);

  ProvisionPipeline(const ProvisionPipeline&) = delete;
  ProvisionPipeline& operator=(const ProvisionPipeline&) = delete;

  /// Interns one Dispatch-Daemon command topic per host and subscribes the
  /// daemons.  Called once by the engine when the control bus is enabled.
  void attach_bus(MessageBus& bus, std::size_t host_count);

  /// Starts provisioning a sandbox for `fn`, whose registered spec is
  /// `spec`: makes room under the live-worker cap, places the worker, and
  /// sends the build command to the host's daemon (over the bus, or via a
  /// zero-delay event without one).  Returns the provision slot, or nullptr
  /// when placement failed.  The returned pointer is invalidated by any
  /// further pipeline mutation.
  PendingProvision* start(FunctionId fn, const workflow::FunctionSpec& spec);

  /// Attaches a waiter to the front in-flight provision of `fn`.
  /// Requires has_provisions(fn).
  void attach_waiter(FunctionId fn, RequestId request, NodeId node);

  [[nodiscard]] bool has_provisions(FunctionId fn) const;

  /// In-flight sandbox builds for `fn` (0 when none).
  [[nodiscard]] std::size_t provision_count(FunctionId fn) const;

  /// Abandons the build of `worker` (injected failure or daemon
  /// unreachable): cancels pending events, tears the worker down, bumps
  /// builds_abandoned, and hands the waiters to on_build_failed.  No-op when
  /// the provision is already gone.
  void build_failed(WorkerId worker);

  /// Host-outage teardown: removes the slot for `worker` and cancels its
  /// events, returning the stranded waiters.  nullopt when no slot matches
  /// (the caller still owns the worker teardown either way).
  std::optional<ProvisionWaiters> remove_for_outage(WorkerId worker);

  /// Redirects one unclaimed (waiter-free) provision of `from` to `to`.
  /// The engine has already checked architecture compatibility.
  bool redirect(FunctionId from, FunctionId to);

  /// Aborts waiter-free provisions of `fn`; returns the number aborted.
  std::size_t abort_unclaimed(FunctionId fn);

  /// Registers this subsystem's race-detector probes ("pipeline.*"):
  /// in-flight builds, pending redirects, cumulative starts/completions.
  void register_probes(sim::ProbeRegistry& probes) const;

 private:
  /// Sends `worker`'s build command to the daemon of its host.
  void publish_command(const cluster::Worker& worker, sim::Duration extra);
  /// The Dispatch-Daemon side of provisioning: samples the (contention-
  /// aware) latency and schedules completion.  Reached either directly via
  /// a zero-delay event or through the control bus.
  void daemon_build_sandbox(WorkerId worker, sim::Duration extra_latency);
  void arm_command_retry(WorkerId worker);
  void command_retry_fired(WorkerId worker);
  void provision_ready(WorkerId worker);
  /// The in-flight build of `worker`, filed under the function the live
  /// worker is bound to; nullptr when the worker or its build is gone.
  PendingProvision* slot_of(WorkerId worker);
  /// Removes `slot` (from slot_of()) from its function's builds and returns it.
  PendingProvision take(PendingProvision& slot);
  /// Enforces max_live_workers by evicting the oldest warm worker; returns
  /// the eviction delay to add to the pending provisioning operation.
  sim::Duration make_room();

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const PlatformCalibration& calib_;
  sim::FaultPlan& fault_plan_;
  WarmPoolManager& warm_pool_;
  RecoveryStats& recovery_stats_;
  Hooks hooks_;

  /// nullptr until attach_bus (commands then short-circuit the bus).
  MessageBus* bus_ = nullptr;
  /// Interned per-host daemon command topics; publishing by id skips the
  /// string hash on every hot-path bus round-trip.
  std::vector<TopicId> daemon_topics_;

  /// In-flight builds per function, oldest first.
  common::IdTable<FunctionId, std::vector<PendingProvision>> provisions_;

  // Cumulative counters (probe-visible; never reset).
  std::uint64_t provisions_started_ = 0;
  std::uint64_t provisions_completed_ = 0;
};

}  // namespace xanadu::platform
