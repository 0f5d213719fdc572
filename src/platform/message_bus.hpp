#pragma once

// In-simulation message bus -- the reproduction's stand-in for the Apache
// Kafka deployment of paper Section 4 ("We use Apache Kafka for internal
// communication between the Dispatch Manager and the Dispatch Daemon and
// also for state management of Xanadu workers").
//
// Topics carry opaque string payloads.  Publishing enqueues a delivery event
// per subscriber after the bus latency (plus optional jitter); per topic,
// deliveries preserve publish order (Kafka partition semantics).  Handlers
// run in virtual time, so bus latency is part of every control-plane
// round-trip that uses it -- notably the Dispatch Manager -> Dispatch Daemon
// provisioning commands.
//
// Topic names are interned to dense TopicIds on first use: the publish hot
// path indexes a vector instead of hashing the topic string, and the
// delivery closure captures an 8-byte id instead of a std::string, which
// keeps it inside sim::EventFn's inline buffer (no per-delivery allocation).
// Delivery walks the topic's subscriber list in place, never copying it:
// a handler may subscribe (the newcomer starts with the next message) or
// unsubscribe (the entry becomes a tombstone, skipped and compacted once no
// delivery is in progress) without disturbing the walk.
//
// Sharded deployments (sim/sharded.hpp) additionally *bridge* topics across
// shard boundaries: attach_shard() binds the bus to its shard's logical
// process, and bridge_topic() forwards every publish on a local topic to a
// topic of a bus on another shard, routed through the cross-shard mailbox
// over a channel the bridge declares with its latency.  Bridged traffic is
// how per-tenant shards feed the fleet-control shard's worker-state view
// without sharing any mutable state.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "sim/fault_plan.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
class LogicalProcess;
}

namespace xanadu::platform {

struct BusMessage {
  std::string topic;
  std::string payload;
  /// Monotonic per-topic sequence number (assigned by the bus).
  std::uint64_t offset = 0;
  /// Virtual time the message was published.
  sim::TimePoint published{};
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
  /// Callers on hot paths can intern once and use the id overloads below.
  TopicId intern(const std::string& topic);

  /// Subscribes `handler` to `topic`.  Returns a handle for unsubscribe().
  SubscriptionId subscribe(const std::string& topic, BusHandler handler);
  SubscriptionId subscribe(TopicId topic, BusHandler handler);

  /// Removes a subscription; returns false if the id is unknown.
  bool unsubscribe(SubscriptionId id);

  /// Publishes a payload; every current subscriber of the topic receives it
  /// after the bus latency.  Returns the message's per-topic offset.
  std::uint64_t publish(const std::string& topic, std::string payload);
  std::uint64_t publish(TopicId topic, std::string payload);

  /// Wires a fault plan into the bus.  Each publish then consults the plan
  /// once: the message may be dropped (never delivered), duplicated
  /// (delivered twice, in order), or held back by the plan's extra delay.
  /// Pass nullptr to detach.  The plan must outlive the bus.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

  // -- Cross-shard bridging (see sim/sharded.hpp) ---------------------------

  /// Binds this bus to its shard's logical process; required before
  /// bridge_topic() in either direction.  `lp` must own this bus's
  /// simulator and must outlive the bus.
  void attach_shard(sim::LogicalProcess& lp);
  [[nodiscard]] bool sharded() const { return lp_ != nullptr; }

  /// Forwards every subsequent publish on `topic` to `remote_topic` of
  /// `remote`, a bus attached to a *different* shard of the same
  /// ShardedSimulator.  The copy crosses the shard mailbox and reaches the
  /// remote bus after `latency` (> 0), which the bridge declares as the
  /// channel's latency (ShardedSimulator::connect): the remote shard's safe
  /// bound trails this shard's clock by it.  Drop faults suppress
  /// forwarding (the broker lost the message); duplicate and delay faults
  /// stay local-delivery artefacts.  Bridges do not chain: a bridged-in
  /// message is delivered to the remote topic's subscribers only, never
  /// re-forwarded.
  void bridge_topic(TopicId topic, MessageBus& remote, TopicId remote_topic,
                    sim::Duration latency);
  void bridge_topic(const std::string& topic, MessageBus& remote,
                    const std::string& remote_topic, sim::Duration latency);

  /// Delivers a message forwarded from another shard to `topic`'s local
  /// subscribers at the current virtual time.  Invoked by the bridge closure
  /// once the mailbox merge lands it on this shard; not meant for direct
  /// use.  The message consumes a local per-topic offset.
  void deliver_bridged(TopicId topic, std::string payload);

  [[nodiscard]] std::size_t subscriber_count(const std::string& topic) const;
  [[nodiscard]] std::size_t topic_count() const { return topics_.size(); }
  [[nodiscard]] std::uint64_t published_count() const { return published_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  /// Messages published but never scheduled for delivery (drop faults).
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  /// Messages forwarded to / received from bridged topics on other shards.
  [[nodiscard]] std::uint64_t bridged_out_count() const { return bridged_out_; }
  [[nodiscard]] std::uint64_t bridged_in_count() const { return bridged_in_; }

 private:
  struct Subscription {
    /// Invalid once unsubscribed during a delivery: a tombstone that keeps
    /// the handler alive (it may be the one running) until compaction.
    SubscriptionId id;
    BusHandler handler;
  };

  /// One cross-shard forwarding edge of a topic.
  struct Bridge {
    MessageBus* remote = nullptr;
    TopicId remote_topic;
    sim::ShardId target = sim::kNoShard;
    sim::Duration latency;
  };

  struct Topic {
    /// Boxed so a handler keeps its address while a re-entrant subscribe()
    /// grows the list under a delivery that is running it.
    std::vector<std::unique_ptr<Subscription>> subscriptions;
    std::vector<Bridge> bridges;
    std::uint64_t next_offset = 0;
    /// Earliest time the next delivery may fire, per subscriber ordering.
    sim::TimePoint last_delivery{};
  };

  void schedule_delivery(TopicId topic, sim::TimePoint when,
                         const std::shared_ptr<BusMessage>& message);
  /// Hands `message` to the subscribers `topic` had when the call began,
  /// skipping any unsubscribed before their turn.
  void deliver(TopicId topic, const BusMessage& message);
  /// Drops tombstoned subscriptions; only while no delivery is running.
  void compact_subscriptions();

  sim::Simulator& sim_;
  Options options_;
  common::Rng rng_;
  sim::FaultPlan* faults_ = nullptr;
  /// Shard binding for cross-shard bridges; nullptr in unsharded runs.
  sim::LogicalProcess* lp_ = nullptr;
  /// Topic names live in the shared interner (common::StringInterner);
  /// common::Symbol values double as dense indices into topics_.  Touched
  /// only on intern (cold path); publish/delivery index topics_ directly.
  common::StringInterner names_;
  std::vector<Topic> topics_;
  /// Deliveries in progress (handlers may re-enter the bus).
  std::size_t delivering_ = 0;
  /// Some topic holds a tombstone awaiting compaction.
  bool has_tombstones_ = false;
  common::IdGenerator<SubscriptionId> subscription_ids_;
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bridged_out_ = 0;
  std::uint64_t bridged_in_ = 0;
};

}  // namespace xanadu::platform
