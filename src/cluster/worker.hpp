#pragma once

// Worker: one provisioned isolation sandbox bound to a function.
//
// Lifecycle:   Provisioning -> Warm -> Busy -> Warm -> ... -> Dead
// A worker accumulates the resource-cost quantities behind the paper's
// C_R metrics (Section 2.4):
//   * provisioning CPU work (core-seconds),
//   * idle CPU burn while warm (core-seconds),
//   * idle memory occupancy while warm (MB-seconds),
//   * the *pre-use* slices of the above -- resources locked between becoming
//     ready and first executing a request, which is exactly what Equation 2
//     charges ("resources provisioned and locked before the actual function
//     execution begins").
// Workers that die without ever executing (speculation misses) are counted
// as wasted.

#include <cstdint>
#include <stdexcept>

#include "cluster/sandbox.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"

namespace xanadu::cluster {

using common::FunctionId;
using common::HostId;
using common::NodeId;
using common::RequestId;
using common::WorkerId;

enum class WorkerState { Provisioning, Warm, Busy, Dead };

/// A worker state change, as the cluster reports it to its observer (see
/// Cluster::set_worker_observer).  A rebind is not one: the worker keeps
/// its state and only its function changes.
enum class WorkerTransition : std::uint8_t {
  Provisioning,  // Created; the sandbox build started.
  Ready,         // Build finished; worker warm.
  Busy,          // Executing a request.
  Idle,          // Finished executing; back to warm.
  Dead,          // Destroyed (keep-alive expiry, eviction, miss discard,
                 // build failure, outage) or crashed.
};

[[nodiscard]] const char* to_string(WorkerState state);
[[nodiscard]] const char* to_string(WorkerTransition transition);

/// Cluster-wide running totals of resource costs.  Benchmarks snapshot this
/// before and after an experiment and report the delta.
struct ResourceLedger {
  /// CPU work burned by provisioning operations (core-seconds).
  double provision_cpu_core_seconds = 0.0;
  /// CPU burned by warm-idle workers (core-seconds).
  double idle_cpu_core_seconds = 0.0;
  /// Memory held by warm-idle workers (MB-seconds).
  double idle_memory_mb_seconds = 0.0;
  /// Portions of the idle costs accrued before a worker's *first* request
  /// (the pre-use resource lock of Equation 2).
  double pre_use_idle_cpu_core_seconds = 0.0;
  double pre_use_memory_mb_seconds = 0.0;
  std::size_t workers_provisioned = 0;
  std::size_t workers_wasted = 0;  // died without executing any request
  std::size_t executions = 0;

  ResourceLedger& operator+=(const ResourceLedger& other);
  friend ResourceLedger operator-(ResourceLedger a, const ResourceLedger& b);
};

class Worker {
 public:
  /// Starts in Provisioning state at time `now`.
  Worker(WorkerId id, FunctionId fn, HostId host, SandboxKind kind,
         double function_memory_mb, const SandboxProfile& profile,
         ResourceLedger& ledger, sim::TimePoint now);

  [[nodiscard]] WorkerId id() const { return id_; }
  [[nodiscard]] FunctionId function() const { return fn_; }
  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] SandboxKind kind() const { return kind_; }
  [[nodiscard]] WorkerState state() const { return state_; }
  /// Function memory plus sandbox overhead, in MB.
  [[nodiscard]] double total_memory_mb() const { return memory_mb_; }
  [[nodiscard]] sim::TimePoint provision_start() const { return provision_start_; }
  [[nodiscard]] bool ever_used() const { return executions_ > 0; }
  [[nodiscard]] sim::TimePoint idle_since() const;
  /// The request and node this worker is executing; invalid ids unless
  /// Busy (and after a crash, the ones it died running).
  [[nodiscard]] RequestId running_request() const { return running_request_; }
  [[nodiscard]] NodeId running_node() const { return running_node_; }

  /// Provisioning -> Warm.  Charges the provisioning CPU work.
  void mark_ready(sim::TimePoint now);
  /// Warm -> Busy, running `node` of `request`.  Flushes the idle interval
  /// [idle_since, now) to the ledger.
  void begin_execution(sim::TimePoint now, RequestId request = {},
                       NodeId node = {});
  /// Busy -> Warm.
  void end_execution(sim::TimePoint now);
  /// Any live state -> Dead.  Flushes any open idle interval; a worker dying
  /// straight out of Provisioning (cancelled speculation) still charges its
  /// provisioning CPU work.
  void terminate(sim::TimePoint now);

  /// Busy -> Dead: the fault-injection path for a worker dying while
  /// executing a request.  terminate() deliberately refuses Busy workers
  /// (killing one under normal operation is a bug); crash() is the one legal
  /// way a Busy worker leaves the fleet, and only the fault layer calls it.
  void crash(sim::TimePoint now);

  /// Re-binds a sandbox to another function of the same architecture (the
  /// paper's Section 7 reuse extension).  Legal while Warm (idle reuse) or
  /// Provisioning (an environment being built is generic until code load);
  /// the sandbox keeps its resources and idle accounting.
  void rebind(FunctionId fn);

 private:
  void flush_idle(sim::TimePoint now);
  void require_state(WorkerState expected, const char* op) const;

  WorkerId id_;
  FunctionId fn_;
  HostId host_;
  SandboxKind kind_;
  double memory_mb_;
  double idle_cpu_fraction_;
  double provision_cpu_core_seconds_;
  ResourceLedger* ledger_;

  WorkerState state_ = WorkerState::Provisioning;
  sim::TimePoint provision_start_{};
  sim::TimePoint idle_since_{};
  std::size_t executions_ = 0;
  RequestId running_request_{};
  NodeId running_node_{};
};

}  // namespace xanadu::cluster
