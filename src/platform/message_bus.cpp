#include "platform/message_bus.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>

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
  // A new topic takes the next dense id, so ids follow first use.
  const auto [it, fresh] = names_.try_emplace(topic, TopicId{topics_.size()});
  if (fresh) topics_.emplace_back();
  return it->second;
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

std::uint64_t MessageBus::publish(TopicId topic, BusPayload payload) {
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

  double delay_ms = options_.latency.millis();
  if (options_.jitter > sim::Duration::zero()) {
    // Shared bus stream is deliberate: publishes happen in a fixed serial
    // order (per-topic offsets pin it; the race sweep covers this).
    delay_ms += std::abs(  // lint:allow(shared-rng-draw)
        rng_.normal(0.0, options_.jitter.millis()));
  }
  if (fault == sim::FaultPlan::BusFault::Delay) {
    delay_ms += faults_->options().bus_extra_delay.millis();
  }
  // Per-topic ordering: a delivery never overtakes its predecessor.
  sim::TimePoint when = sim_.now() + sim::Duration::from_millis(delay_ms);
  when = std::max(when, state.last_delivery);
  state.last_delivery = when;

  // Nobody to deliver to: the draws above are taken, the event is not.
  if (state.subscriptions.empty()) return offset;

  // A duplicate lands immediately after the original (same virtual time,
  // FIFO tie-break) and keeps its offset, like a Kafka redelivery.
  const int copies = fault == sim::FaultPlan::BusFault::Duplicate ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    state.in_flight.push_back(BusMessage{payload, offset});
    sim_.schedule_at(
        when, [this, topic] { deliver_next(topic); }, "bus.delivery");
  }
  return offset;
}

void MessageBus::deliver_next(TopicId topic) {
  Topic& state = topics_[topic.value()];
  // Copied out: a handler may publish on this topic and grow the FIFO.
  const BusMessage message = state.in_flight[state.in_flight_head++];
  if (2 * state.in_flight_head >= state.in_flight.size()) {
    state.in_flight.erase(
        state.in_flight.begin(),
        state.in_flight.begin() +
            static_cast<std::ptrdiff_t>(state.in_flight_head));
    state.in_flight_head = 0;
  }
  deliver(topic, message);
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

std::size_t MessageBus::subscriber_count(TopicId topic) const {
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{
        "MessageBus::subscriber_count: unknown topic id"};
  }
  const auto& subs = topics_[topic.value()].subscriptions;
  return static_cast<std::size_t>(std::count_if(
      subs.begin(), subs.end(),
      [](const std::unique_ptr<Subscription>& s) { return s->id.valid(); }));
}

}  // namespace xanadu::platform
