#include "platform/message_bus.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/logical_process.hpp"
#include "sim/sharded.hpp"

namespace xanadu::platform {

MessageBus::MessageBus(sim::Simulator& simulator, Options options,
                       common::Rng rng)
    : sim_(simulator), options_(options), rng_(rng) {
  if (options_.latency < sim::Duration::zero() ||
      options_.jitter < sim::Duration::zero()) {
    throw std::invalid_argument{"MessageBus: negative latency or jitter"};
  }
}

TopicId MessageBus::intern(const std::string& topic) {
  const common::Symbol symbol = names_.intern(topic);
  // Symbols are dense first-use ids, so a fresh one is exactly topics_.size().
  if (symbol == topics_.size()) topics_.emplace_back();
  return TopicId{symbol};
}

SubscriptionId MessageBus::subscribe(const std::string& topic,
                                     BusHandler handler) {
  return subscribe(intern(topic), std::move(handler));
}

SubscriptionId MessageBus::subscribe(TopicId topic, BusHandler handler) {
  if (!handler) throw std::invalid_argument{"MessageBus::subscribe: empty handler"};
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{"MessageBus::subscribe: unknown topic id"};
  }
  const SubscriptionId id = subscription_ids_.next();
  topics_[topic.value()].subscriptions.push_back(
      std::make_unique<Subscription>(Subscription{id, std::move(handler)}));
  return id;
}

bool MessageBus::unsubscribe(SubscriptionId id) {
  if (!id.valid()) return false;
  // Linear search for a unique subscription id: at most one topic matches.
  // topics_ is a dense vector in intern order, so the walk is deterministic.
  for (Topic& state : topics_) {
    auto& subs = state.subscriptions;
    const auto it = std::find_if(
        subs.begin(), subs.end(),
        [id](const std::unique_ptr<Subscription>& s) { return s->id == id; });
    if (it == subs.end()) continue;
    if (delivering_ > 0) {
      // A delivery may be walking this list (or running this very handler):
      // leave a tombstone instead of moving entries under it.
      (*it)->id = SubscriptionId{};
      has_tombstones_ = true;
    } else {
      subs.erase(it);
    }
    return true;
  }
  return false;
}

std::uint64_t MessageBus::publish(const std::string& topic,
                                  std::string payload) {
  return publish(intern(topic), std::move(payload));
}

std::uint64_t MessageBus::publish(TopicId topic, std::string payload) {
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{"MessageBus::publish: unknown topic id"};
  }
  Topic& state = topics_[topic.value()];
  const std::uint64_t offset = state.next_offset++;
  ++published_;

  // One fault consult per message.  A dropped message still consumed its
  // offset (the broker accepted it; delivery is what got lost) but never
  // advances last_delivery, so later messages are not held back by it.
  sim::FaultPlan::BusFault fault = sim::FaultPlan::BusFault::None;
  if (faults_ != nullptr && faults_->active()) {
    fault = faults_->next_bus_fault();
  }
  if (fault == sim::FaultPlan::BusFault::Drop) {
    ++dropped_;
    return offset;
  }

  // Cross-shard fan-out: a copy of the payload crosses the mailbox and is
  // handed to the remote bus after the bridge latency.  The closure is
  // pointer + TopicId + std::string = 48 bytes, inside EventFn's inline
  // buffer, and std::string's move is noexcept, so it crosses the mailbox
  // without allocating beyond the payload itself.
  for (const Bridge& bridge : state.bridges) {
    MessageBus* const remote = bridge.remote;
    const TopicId remote_topic = bridge.remote_topic;
    lp_->send(bridge.target, sim_.now() + bridge.latency,
              [remote, remote_topic, copy = payload]() mutable {
                remote->deliver_bridged(remote_topic, std::move(copy));
              },
              "bus.bridge");
    ++bridged_out_;
  }

  double delay_ms = options_.latency.millis();
  if (options_.jitter > sim::Duration::zero()) {
    // Shared bus stream is deliberate: publishes happen in a fixed serial
    // order (per-topic offsets pin it; the race sweep covers this).
    delay_ms += std::abs(  // flow-lint:allow(shared-rng-draw)
        rng_.normal(0.0, options_.jitter.millis()));
  }
  if (fault == sim::FaultPlan::BusFault::Delay) {
    delay_ms += faults_->options().bus_extra_delay.millis();
  }
  // Per-topic ordering: a delivery never overtakes its predecessor.
  sim::TimePoint when = sim_.now() + sim::Duration::from_millis(delay_ms);
  when = std::max(when, state.last_delivery);
  state.last_delivery = when;

  auto message = std::make_shared<BusMessage>();
  message->topic = std::string{names_.view(topic.value())};
  message->payload = std::move(payload);
  message->offset = offset;
  message->published = sim_.now();

  schedule_delivery(topic, when, message);
  if (fault == sim::FaultPlan::BusFault::Duplicate) {
    // The duplicate lands immediately after the original (same virtual time,
    // FIFO tie-break) and keeps its offset, like a Kafka redelivery.
    schedule_delivery(topic, when, message);
  }
  return offset;
}

void MessageBus::schedule_delivery(TopicId topic, sim::TimePoint when,
                                   const std::shared_ptr<BusMessage>& message) {
  Topic& state = topics_[topic.value()];
  state.last_delivery = std::max(state.last_delivery, when);
  // Captures: this + TopicId + shared_ptr = 32 bytes, inside EventFn's
  // inline buffer -- the delivery path does not allocate per message.
  sim_.schedule_at(
      when, [this, topic, message] { deliver(topic, *message); },
      "bus.delivery");
}

void MessageBus::deliver(TopicId topic, const BusMessage& message) {
  // Walk the list in place.  Entries added during the walk sit past `count`
  // and wait for the next message; entries removed during it stay in place
  // as tombstones until no delivery is running.  Re-index every step: a
  // handler may grow the list or topics_ itself.
  const std::size_t count = topics_[topic.value()].subscriptions.size();
  ++delivering_;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      Subscription& sub = *topics_[topic.value()].subscriptions[i];
      if (!sub.id.valid()) continue;
      ++delivered_;
      sub.handler(message);
    }
  } catch (...) {
    --delivering_;
    throw;
  }
  --delivering_;
  if (delivering_ == 0 && has_tombstones_) compact_subscriptions();
}

void MessageBus::compact_subscriptions() {
  for (Topic& state : topics_) {
    std::erase_if(state.subscriptions,
                  [](const std::unique_ptr<Subscription>& s) {
                    return !s->id.valid();
                  });
  }
  has_tombstones_ = false;
}

void MessageBus::attach_shard(sim::LogicalProcess& lp) {
  if (&lp.simulator() != &sim_) {
    throw std::logic_error{
        "MessageBus::attach_shard: the logical process must own this bus's "
        "simulator"};
  }
  lp_ = &lp;
}

void MessageBus::bridge_topic(TopicId topic, MessageBus& remote,
                              TopicId remote_topic, sim::Duration latency) {
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{"MessageBus::bridge_topic: unknown topic id"};
  }
  if (!remote_topic.valid() ||
      remote_topic.value() >= remote.topics_.size()) {
    throw std::invalid_argument{
        "MessageBus::bridge_topic: unknown remote topic id"};
  }
  if (lp_ == nullptr || remote.lp_ == nullptr) {
    throw std::logic_error{
        "MessageBus::bridge_topic: both buses must be attached to shards"};
  }
  if (&remote == this || remote.lp_->shard() == lp_->shard()) {
    throw std::logic_error{
        "MessageBus::bridge_topic: the remote bus must live on another shard"};
  }
  if (&remote.lp_->owner() != &lp_->owner()) {
    throw std::logic_error{
        "MessageBus::bridge_topic: shards belong to different drivers"};
  }
  // The bridge is a channel of the sharded driver: declaring it lets the
  // fleet-side shard compute its safe bound from this latency (and rejects
  // a non-positive one).
  lp_->owner().connect(lp_->shard(), remote.lp_->shard(), latency);
  topics_[topic.value()].bridges.push_back(
      Bridge{&remote, remote_topic, remote.lp_->shard(), latency});
}

void MessageBus::bridge_topic(const std::string& topic, MessageBus& remote,
                              const std::string& remote_topic,
                              sim::Duration latency) {
  bridge_topic(intern(topic), remote, remote.intern(remote_topic), latency);
}

void MessageBus::deliver_bridged(TopicId topic, std::string payload) {
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{
        "MessageBus::deliver_bridged: unknown topic id"};
  }
  Topic& state = topics_[topic.value()];
  BusMessage message;
  message.topic = std::string{names_.view(topic.value())};
  message.payload = std::move(payload);
  message.offset = state.next_offset++;
  message.published = sim_.now();
  state.last_delivery = std::max(state.last_delivery, sim_.now());
  ++bridged_in_;
  deliver(topic, message);
}

std::size_t MessageBus::subscriber_count(const std::string& topic) const {
  const auto symbol = names_.find(topic);
  if (!symbol) return 0;
  const auto& subs = topics_[*symbol].subscriptions;
  return static_cast<std::size_t>(std::count_if(
      subs.begin(), subs.end(),
      [](const std::unique_ptr<Subscription>& s) { return s->id.valid(); }));
}

}  // namespace xanadu::platform
