#pragma once

// In-simulation message bus -- the reproduction's stand-in for the Apache
// Kafka deployment of paper Section 4 ("We use Apache Kafka for internal
// communication between the Dispatch Manager and the Dispatch Daemon and
// also for state management of Xanadu workers").
//
// Topics carry typed payloads: the bus's two record kinds, worker lifecycle
// events and provisioning commands, travel as a std::variant, so no message
// is formatted to text or parsed back.  Publishing schedules a delivery
// event per message after the bus latency (plus optional jitter); per
// topic, deliveries preserve publish order (Kafka partition semantics).
// Handlers run in virtual time, so bus latency is part of every
// control-plane round-trip that uses it -- notably the Dispatch Manager ->
// Dispatch Daemon provisioning commands.
//
// In-flight messages wait in a per-topic FIFO, and the delivery event pops
// its head: deliveries on one topic fire in publish order (`when` never
// decreases per topic, and equal times tie-break by schedule order), so the
// event captures only the bus and the topic and no message allocates.
//
// A publish to a topic that has no subscriber at that moment schedules no
// delivery.  It still takes its offset, its fault draw and its jitter draw,
// in the usual order, so every RNG stream is the same as if it had been
// delivered.  A subscriber that joins while such a message would have been
// in flight does not receive it -- like a Kafka consumer that starts at the
// latest offset.
//
// Topic names are interned to dense TopicIds once, at set-up, and every
// other call takes the id: the publish hot path indexes a vector instead of
// hashing the topic string.  Delivery walks the topic's subscriber list in
// place, never copying it: a handler may subscribe (the newcomer starts with
// the next message) or unsubscribe (the entry becomes a tombstone, skipped
// and compacted once no delivery is in progress) without disturbing the
// walk.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cluster/worker.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

/// The cluster's own transition kinds travel on the bus unchanged.
using WorkerEventKind = cluster::WorkerTransition;

/// A worker lifecycle transition, published on the "workers" topic by the
/// engine's observer of the cluster, once per transition the cluster
/// reports (WorkerStateTracker in platform/worker_state.hpp consumes it).
struct WorkerEvent {
  WorkerEventKind kind = WorkerEventKind::Provisioning;
  common::WorkerId worker{};
  common::FunctionId function{};
  common::HostId host{};
};

/// A Dispatch Manager -> Dispatch Daemon sandbox-build command, published on
/// the host's "daemon.<host>" topic.
struct ProvisionCommand {
  /// The worker's function when the command was sent.  The daemon finds the
  /// build through `worker`, since a redirect may have rebound it since.
  common::FunctionId function{};
  common::WorkerId worker{};
  /// Extra platform latency the daemon adds to the sampled build time.
  sim::Duration extra = sim::Duration::zero();
};

using BusPayload = std::variant<WorkerEvent, ProvisionCommand>;

struct BusMessage {
  BusPayload payload;
  /// Monotonic per-topic sequence number (assigned by the bus).
  std::uint64_t offset = 0;
};

using BusHandler = std::function<void(const BusMessage&)>;

/// Subscription handle; used to unsubscribe.
struct SubscriptionTag {};
using SubscriptionId = common::Id<SubscriptionTag>;

/// Dense handle for an interned topic name.  Assigned in first-use order,
/// so ids are deterministic for a deterministic call sequence.
struct TopicTag {};
using TopicId = common::Id<TopicTag>;

class MessageBus {
 public:
  struct Options {
    /// One-way delivery latency.
    sim::Duration latency = sim::Duration::from_millis(3);
    /// Stddev of delivery jitter.  Jitter never reorders messages within a
    /// topic: deliveries are serialised per topic like Kafka partitions.
    sim::Duration jitter = sim::Duration::zero();
  };

  MessageBus(sim::Simulator& simulator, Options options, common::Rng rng);

  /// Interns `topic`, creating it if unseen, and returns its dense id.
  /// Every other call names topics by id: callers intern once, at set-up.
  TopicId intern(const std::string& topic);

  /// Subscribes `handler` to `topic`.  Returns a handle for unsubscribe().
  SubscriptionId subscribe(TopicId topic, BusHandler handler);

  /// Removes a subscription; returns false if the id is unknown.
  bool unsubscribe(SubscriptionId id);

  /// Publishes a payload; every subscriber the topic has now and still has
  /// at delivery receives it after the bus latency.  Returns the message's
  /// per-topic offset.
  std::uint64_t publish(TopicId topic, BusPayload payload);

  /// Wires a fault plan into the bus.  Each publish then consults the plan
  /// once: the message may be dropped (never delivered), duplicated
  /// (delivered twice, in order), or held back by the plan's extra delay.
  /// Pass nullptr to detach.  The plan must outlive the bus.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

  [[nodiscard]] std::size_t subscriber_count(TopicId topic) const;
  [[nodiscard]] std::uint64_t published_count() const { return published_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  /// Messages published but never scheduled for delivery (drop faults).
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }

 private:
  struct Subscription {
    /// Invalid once unsubscribed during a delivery: a tombstone that keeps
    /// the handler alive (it may be the one running) until compaction.
    SubscriptionId id;
    BusHandler handler;
  };

  struct Topic {
    /// Boxed so a handler keeps its address while a re-entrant subscribe()
    /// grows the list under a delivery that is running it.
    std::vector<std::unique_ptr<Subscription>> subscriptions;
    /// Messages scheduled for delivery, oldest first from
    /// `in_flight_head`; each delivery event pops one.  The consumed prefix
    /// is reclaimed in bulk, so the vector's capacity is reused.
    std::vector<BusMessage> in_flight;
    std::size_t in_flight_head = 0;
    std::uint64_t next_offset = 0;
    /// Earliest time the next delivery may fire, per subscriber ordering.
    sim::TimePoint last_delivery{};
  };

  /// Pops the head of `topic`'s in-flight FIFO and delivers it.
  void deliver_next(TopicId topic);
  /// Hands `message` to the subscribers `topic` had when the call began,
  /// skipping any unsubscribed before their turn.
  void deliver(TopicId topic, const BusMessage& message);
  /// Drops tombstoned subscriptions; only while no delivery is running.
  void compact_subscriptions();

  sim::Simulator& sim_;
  Options options_;
  common::Rng rng_;
  sim::FaultPlan* faults_ = nullptr;
  /// Topic name -> id, which indexes topics_.  Touched only by intern(), at
  /// set-up; publish and delivery index topics_ directly.
  std::map<std::string, TopicId, std::less<>> names_;
  std::vector<Topic> topics_;
  /// Deliveries in progress (handlers may re-enter the bus).
  std::size_t delivering_ = 0;
  /// Some topic holds a tombstone awaiting compaction.
  bool has_tombstones_ = false;
  common::IdGenerator<SubscriptionId> subscription_ids_;
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace xanadu::platform
