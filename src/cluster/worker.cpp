#include "cluster/worker.hpp"

#include <string>

#include "sim/audit.hpp"

namespace xanadu::cluster {

const char* to_string(WorkerState state) {
  switch (state) {
    case WorkerState::Provisioning: return "provisioning";
    case WorkerState::Warm: return "warm";
    case WorkerState::Busy: return "busy";
    case WorkerState::Dead: return "dead";
  }
  return "unknown";
}

const char* to_string(WorkerTransition transition) {
  switch (transition) {
    case WorkerTransition::Provisioning: return "provisioning";
    case WorkerTransition::Ready: return "ready";
    case WorkerTransition::Busy: return "busy";
    case WorkerTransition::Idle: return "idle";
    case WorkerTransition::Dead: return "dead";
  }
  return "unknown";
}

ResourceLedger& ResourceLedger::operator+=(const ResourceLedger& other) {
  provision_cpu_core_seconds += other.provision_cpu_core_seconds;
  idle_cpu_core_seconds += other.idle_cpu_core_seconds;
  idle_memory_mb_seconds += other.idle_memory_mb_seconds;
  pre_use_idle_cpu_core_seconds += other.pre_use_idle_cpu_core_seconds;
  pre_use_memory_mb_seconds += other.pre_use_memory_mb_seconds;
  workers_provisioned += other.workers_provisioned;
  workers_wasted += other.workers_wasted;
  executions += other.executions;
  return *this;
}

ResourceLedger operator-(ResourceLedger a, const ResourceLedger& b) {
  a.provision_cpu_core_seconds -= b.provision_cpu_core_seconds;
  a.idle_cpu_core_seconds -= b.idle_cpu_core_seconds;
  a.idle_memory_mb_seconds -= b.idle_memory_mb_seconds;
  a.pre_use_idle_cpu_core_seconds -= b.pre_use_idle_cpu_core_seconds;
  a.pre_use_memory_mb_seconds -= b.pre_use_memory_mb_seconds;
  a.workers_provisioned -= b.workers_provisioned;
  a.workers_wasted -= b.workers_wasted;
  a.executions -= b.executions;
  return a;
}

Worker::Worker(WorkerId id, FunctionId fn, HostId host, SandboxKind kind,
               double function_memory_mb, const SandboxProfile& profile,
               ResourceLedger& ledger, sim::TimePoint now)
    : id_(id),
      fn_(fn),
      host_(host),
      kind_(kind),
      memory_mb_(function_memory_mb + profile.memory_overhead_mb),
      idle_cpu_fraction_(profile.idle_cpu_fraction),
      provision_cpu_core_seconds_(profile.provision_cpu_core_seconds),
      ledger_(&ledger),
      provision_start_(now) {
  if (function_memory_mb <= 0.0) {
    throw std::invalid_argument{"Worker: memory must be positive"};
  }
  ledger_->workers_provisioned += 1;
}

sim::TimePoint Worker::idle_since() const {
  require_state(WorkerState::Warm, "idle_since");
  return idle_since_;
}

void Worker::require_state(WorkerState expected, const char* op) const {
  // Lifecycle legality (Provisioning -> Warm <-> Busy -> Dead) is a hard
  // invariant audited in every build type.  In FailFast mode this throws
  // audit::InvariantViolation (a std::logic_error, as callers expect).
  XANADU_INVARIANT(state_ == expected,
                   std::string{"Worker::"} + op + ": expected state " +
                       // lint:allow(hot-path-text) built only on a violation
                       to_string(expected) + ", got " + to_string(state_));
}

void Worker::mark_ready(sim::TimePoint now) {
  require_state(WorkerState::Provisioning, "mark_ready");
  if (now < provision_start_) {
    throw std::invalid_argument{"Worker::mark_ready: time before provision start"};
  }
  ledger_->provision_cpu_core_seconds += provision_cpu_core_seconds_;
  state_ = WorkerState::Warm;
  idle_since_ = now;
}

void Worker::flush_idle(sim::TimePoint now) {
  const double idle_seconds = (now - idle_since_).seconds();
  XANADU_INVARIANT(idle_seconds >= 0.0, "Worker::flush_idle: time went backwards");
  const double cpu = idle_seconds * idle_cpu_fraction_;
  const double mem = idle_seconds * memory_mb_;
  ledger_->idle_cpu_core_seconds += cpu;
  ledger_->idle_memory_mb_seconds += mem;
  if (!ever_used()) {
    ledger_->pre_use_idle_cpu_core_seconds += cpu;
    ledger_->pre_use_memory_mb_seconds += mem;
  }
  idle_since_ = now;
}

void Worker::begin_execution(sim::TimePoint now, RequestId request,
                             NodeId node) {
  require_state(WorkerState::Warm, "begin_execution");
  flush_idle(now);
  state_ = WorkerState::Busy;
  running_request_ = request;
  running_node_ = node;
  ++executions_;
  ledger_->executions += 1;
}

void Worker::end_execution(sim::TimePoint now) {
  require_state(WorkerState::Busy, "end_execution");
  state_ = WorkerState::Warm;
  running_request_ = RequestId{};
  running_node_ = NodeId{};
  idle_since_ = now;
}

void Worker::rebind(FunctionId fn) {
  if (state_ != WorkerState::Warm && state_ != WorkerState::Provisioning) {
    throw std::logic_error{
        "Worker::rebind: only warm or provisioning sandboxes can be rebound"};
  }
  fn_ = fn;
}

void Worker::crash(sim::TimePoint now) {
  (void)now;  // A Busy worker has no open idle interval to flush.
  require_state(WorkerState::Busy, "crash");
  // The execution was counted at begin_execution; the crash makes that work
  // wasted, but the provisioning and idle costs are already on the ledger.
  state_ = WorkerState::Dead;
}

void Worker::terminate(sim::TimePoint now) {
  switch (state_) {
    case WorkerState::Provisioning:
      // Cancelled mid-provisioning: the CPU work is already sunk.
      ledger_->provision_cpu_core_seconds += provision_cpu_core_seconds_;
      break;
    case WorkerState::Warm:
      flush_idle(now);
      break;
    case WorkerState::Busy:
      XANADU_INVARIANT(false, "Worker::terminate: cannot kill a busy worker");
      return;  // Record mode: refuse the illegal transition and continue.
    case WorkerState::Dead:
      XANADU_INVARIANT(false, "Worker::terminate: already dead");
      return;
  }
  if (!ever_used()) ledger_->workers_wasted += 1;
  state_ = WorkerState::Dead;
}

}  // namespace xanadu::cluster
