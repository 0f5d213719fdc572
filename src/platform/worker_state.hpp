#pragma once

// Worker state management over the control bus.
//
// Paper Section 4 uses Kafka "also for state management of Xanadu workers":
// the Dispatch Daemons publish worker lifecycle transitions, and the
// Dispatch Manager's view of the fleet is whatever has arrived on the bus.
// The event record itself (WorkerEvent) is one of the bus's typed payloads
// (platform/message_bus.hpp); this module names the engine's "workers"
// topic and provides WorkerStateTracker, a subscriber that maintains the
// eventually-consistent fleet view (counts per state and per function) by
// reading the typed events directly.
//
// The tracker deliberately lags reality by the bus latency -- tests assert
// exactly that -- mirroring the consistency model a real Kafka-backed
// control plane has.

#include <cstdint>
#include <unordered_map>

#include "common/ids.hpp"
#include "platform/message_bus.hpp"

namespace xanadu::platform {

[[nodiscard]] const char* to_string(WorkerEventKind kind);

/// Topic the engine publishes worker events on.
inline constexpr const char* kWorkerStateTopic = "workers";

/// Subscribes to the worker-state topic and maintains the fleet view.
class WorkerStateTracker {
 public:
  /// Subscribes to the bus's "workers" topic on construction; the bus must
  /// outlive the tracker.  The sharded runner's fleet view is one tracker
  /// per tenant, each on its own tenant's bus, which keeps tenants' worker
  /// ids apart.  A delivery that is not a WorkerEvent throws
  /// std::invalid_argument.
  explicit WorkerStateTracker(MessageBus& bus);
  ~WorkerStateTracker();

  WorkerStateTracker(const WorkerStateTracker&) = delete;
  WorkerStateTracker& operator=(const WorkerStateTracker&) = delete;

  /// Live (non-dead) workers currently known.
  [[nodiscard]] std::size_t live_count() const;
  /// Workers known to be in a given state.
  [[nodiscard]] std::size_t count(WorkerEventKind state) const;
  /// Live workers of one function.
  [[nodiscard]] std::size_t function_count(common::FunctionId fn) const;
  /// Total events consumed.
  [[nodiscard]] std::uint64_t events_seen() const { return events_; }

 private:
  void apply(const WorkerEvent& event);

  MessageBus& bus_;
  SubscriptionId subscription_;
  struct Entry {
    WorkerEventKind state;
    common::FunctionId function;
  };
  std::unordered_map<common::WorkerId, Entry> workers_;
  std::uint64_t events_ = 0;
};

}  // namespace xanadu::platform
