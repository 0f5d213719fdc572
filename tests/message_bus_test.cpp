// Tests for the control-plane message bus (Kafka stand-in) and its
// integration with the platform engine's provisioning pipeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "platform/engine.hpp"
#include "platform/message_bus.hpp"
#include "platform/worker_state.hpp"
#include "sim/fault_plan.hpp"
#include "workflow/builders.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using sim::Duration;

// Distinguishable payloads: a Busy event for worker `n`.
BusPayload event(std::uint64_t n) {
  return WorkerEvent{WorkerEventKind::Busy, common::WorkerId{n}, {}, {}};
}

std::uint64_t worker_of(const BusMessage& m) {
  return std::get<WorkerEvent>(m.payload).worker.value();
}

std::string label(const char* who, const BusMessage& m) {
  return std::string{who} + ":" + std::to_string(worker_of(m));
}

class MessageBusTest : public ::testing::Test {
 protected:
  MessageBusTest() { make_bus({}); }

  void make_bus(MessageBus::Options options) {
    bus_ = std::make_unique<MessageBus>(sim_, options, common::Rng{3});
  }

  sim::Simulator sim_;
  std::unique_ptr<MessageBus> bus_;
};

TEST_F(MessageBusTest, DeliversToSubscriberAfterLatency) {
  MessageBus::Options options;
  options.latency = 10_ms;
  make_bus(options);
  const TopicId topic = bus_->intern("topic");
  std::vector<std::uint64_t> received;
  sim::TimePoint delivered_at;
  bus_->subscribe(topic, [&](const BusMessage& m) {
    received.push_back(worker_of(m));
    delivered_at = sim_.now();
  });
  bus_->publish(topic, event(42));
  sim_.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 42u);
  EXPECT_EQ(delivered_at.millis(), 10.0);
}

TEST_F(MessageBusTest, FanOutToAllSubscribers) {
  const TopicId t = bus_->intern("t");
  int a = 0, b = 0;
  bus_->subscribe(t, [&](const BusMessage&) { ++a; });
  bus_->subscribe(t, [&](const BusMessage&) { ++b; });
  bus_->publish(t, event(1));
  bus_->publish(t, event(2));
  sim_.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus_->published_count(), 2u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
}

TEST_F(MessageBusTest, TopicsAreIsolated) {
  const TopicId a = bus_->intern("a");
  const TopicId b = bus_->intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.value(), 0u);  // Dense ids in first-use order.
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(bus_->intern("a"), a);  // Interning is idempotent.
  int count = 0;
  bus_->subscribe(a, [&](const BusMessage&) { ++count; });
  bus_->publish(b, event(1));
  sim_.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(bus_->subscriber_count(a), 1u);
  EXPECT_EQ(bus_->subscriber_count(b), 0u);
}

TEST_F(MessageBusTest, OffsetsAreMonotonicPerTopic) {
  const TopicId t = bus_->intern("t");
  const TopicId u = bus_->intern("u");
  EXPECT_EQ(bus_->publish(t, event(0)), 0u);
  EXPECT_EQ(bus_->publish(t, event(1)), 1u);
  EXPECT_EQ(bus_->publish(u, event(0)), 0u);  // Independent per topic.
}

TEST_F(MessageBusTest, JitterNeverReordersWithinTopic) {
  MessageBus::Options options;
  options.latency = 5_ms;
  options.jitter = 20_ms;  // Huge jitter relative to latency.
  make_bus(options);
  const TopicId t = bus_->intern("t");
  std::vector<std::uint64_t> offsets;
  bus_->subscribe(t, [&](const BusMessage& m) { offsets.push_back(m.offset); });
  for (std::uint64_t i = 0; i < 50; ++i) bus_->publish(t, event(i));
  sim_.run();
  ASSERT_EQ(offsets.size(), 50u);
  for (std::size_t i = 0; i < offsets.size(); ++i) EXPECT_EQ(offsets[i], i);
}

TEST_F(MessageBusTest, UnsubscribeStopsFutureAndInFlightDeliveries) {
  const TopicId t = bus_->intern("t");
  int count = 0;
  const auto id = bus_->subscribe(t, [&](const BusMessage&) { ++count; });
  bus_->publish(t, event(1));  // In flight when the handler leaves.
  EXPECT_TRUE(bus_->unsubscribe(id));
  bus_->publish(t, event(2));
  sim_.run();
  // The handler was removed before any delivery fired.
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(bus_->unsubscribe(id));
}

TEST_F(MessageBusTest, SubscribersJoiningLaterMissOldMessages) {
  const TopicId t = bus_->intern("t");
  bus_->publish(t, event(1));
  sim_.run();
  int count = 0;
  bus_->subscribe(t, [&](const BusMessage&) { ++count; });
  sim_.run();
  EXPECT_EQ(count, 0);
}

// -- Re-entrant handlers: delivery walks the subscriber list in place. -----

TEST_F(MessageBusTest, HandlerUnsubscribingALaterSubscriberSkipsIt) {
  const TopicId t = bus_->intern("t");
  std::vector<std::string> seen;
  SubscriptionId victim;
  bus_->subscribe(t, [&](const BusMessage& m) {
    seen.push_back(label("killer", m));
    if (worker_of(m) == 1) {
      EXPECT_TRUE(bus_->unsubscribe(victim));
    }
  });
  victim = bus_->subscribe(
      t, [&](const BusMessage& m) { seen.push_back(label("victim", m)); });
  bus_->subscribe(
      t, [&](const BusMessage& m) { seen.push_back(label("third", m)); });
  bus_->publish(t, event(1));
  bus_->publish(t, event(2));
  sim_.run();
  // The victim, removed before its turn, misses message 1 already; the walk
  // continues to the third subscriber, and the tombstone is gone afterwards.
  EXPECT_EQ(seen, (std::vector<std::string>{"killer:1", "third:1",
                                            "killer:2", "third:2"}));
  EXPECT_EQ(bus_->subscriber_count(t), 2u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
  EXPECT_FALSE(bus_->unsubscribe(victim));
}

TEST_F(MessageBusTest, HandlerUnsubscribingItselfFinishesThisDelivery) {
  const TopicId t = bus_->intern("t");
  std::vector<std::string> seen;
  SubscriptionId self;
  self = bus_->subscribe(t, [&](const BusMessage& m) {
    EXPECT_TRUE(bus_->unsubscribe(self));
    // The running handler (and what it captured) outlives its removal.
    seen.push_back(label("self", m));
  });
  bus_->subscribe(
      t, [&](const BusMessage& m) { seen.push_back(label("other", m)); });
  bus_->publish(t, event(1));
  bus_->publish(t, event(2));
  sim_.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"self:1", "other:1", "other:2"}));
  EXPECT_EQ(bus_->subscriber_count(t), 1u);
}

TEST_F(MessageBusTest, HandlerSubscribingANewcomerStartsItAtTheNextMessage) {
  const TopicId t = bus_->intern("t");
  std::vector<std::string> seen;
  int joined = 0;
  bus_->subscribe(t, [&](const BusMessage& m) {
    seen.push_back(label("first", m));
    // Several joins per delivery, so the list reallocates under the walk
    // while this handler is running.
    for (int k = 0; k < 8 && worker_of(m) == 1; ++k) {
      bus_->subscribe(t, [&seen, k](const BusMessage& later) {
        if (k == 0) seen.push_back(label("newcomer", later));
      });
      ++joined;
    }
  });
  bus_->publish(t, event(1));
  bus_->publish(t, event(2));
  sim_.run();
  EXPECT_EQ(joined, 8);
  EXPECT_EQ(seen, (std::vector<std::string>{"first:1", "first:2",
                                            "newcomer:2"}));
  EXPECT_EQ(bus_->subscriber_count(t), 9u);
  EXPECT_EQ(bus_->delivered_count(), 1u + 9u);
}

TEST_F(MessageBusTest, RejectsBadArguments) {
  EXPECT_THROW(bus_->subscribe(bus_->intern("t"), nullptr),
               std::invalid_argument);
  // Ids the bus never handed out name no topic.
  EXPECT_THROW(bus_->subscribe(TopicId{7}, [](const BusMessage&) {}),
               std::invalid_argument);
  EXPECT_THROW(bus_->publish(TopicId{}, event(1)), std::invalid_argument);
  EXPECT_THROW((void)bus_->subscriber_count(TopicId{7}), std::invalid_argument);
  MessageBus::Options bad;
  bad.latency = Duration::from_millis(-1);
  EXPECT_THROW(MessageBus(sim_, bad, common::Rng{1}), std::invalid_argument);
}

// -- Topics without subscribers: no delivery event, same draws. -----------

TEST_F(MessageBusTest, PublishWithoutSubscriberSchedulesNoDelivery) {
  const TopicId quiet = bus_->intern("quiet");
  EXPECT_EQ(bus_->publish(quiet, event(1)), 0u);
  EXPECT_EQ(bus_->publish(quiet, event(2)), 1u);  // Offsets still advance.
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_EQ(sim_.run(), 0u);
  EXPECT_EQ(sim_.events_fired(), 0u);
  EXPECT_EQ(bus_->published_count(), 2u);
  EXPECT_EQ(bus_->delivered_count(), 0u);
}

TEST_F(MessageBusTest, SubscriberJoiningMidFlightStartsAtTheLatestOffset) {
  // Like a Kafka consumer that starts at the latest offset: a message
  // published while nobody listened is not delivered to a later joiner,
  // even one that joins before the message would have landed.
  const TopicId t = bus_->intern("t");
  bus_->publish(t, event(1));
  std::vector<std::uint64_t> offsets;
  bus_->subscribe(t, [&](const BusMessage& m) { offsets.push_back(m.offset); });
  bus_->publish(t, event(2));
  sim_.run();
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{1}));
}

TEST(MessageBusJitter, UnsubscribedPublishStillTakesItsJitterDraw) {
  // Two buses on one seed; on the first nobody listens to "quiet", on the
  // second somebody does.  The quiet publishes must consume the same jitter
  // draws either way, so the later "loud" message lands at the same time.
  auto loud_arrival = [](bool quiet_has_subscriber) {
    sim::Simulator sim;
    MessageBus::Options options;
    options.latency = 5_ms;
    options.jitter = 20_ms;
    MessageBus bus{sim, options, common::Rng{9}};
    const TopicId quiet = bus.intern("quiet");
    const TopicId loud = bus.intern("loud");
    if (quiet_has_subscriber) bus.subscribe(quiet, [](const BusMessage&) {});
    sim::TimePoint arrival;
    bus.subscribe(loud, [&](const BusMessage&) { arrival = sim.now(); });
    for (std::uint64_t i = 0; i < 5; ++i) bus.publish(quiet, event(i));
    bus.publish(loud, event(99));
    const std::size_t fired = sim.run();
    return std::make_pair(arrival.micros(), fired);
  };
  const auto [unheard_at, unheard_fired] = loud_arrival(false);
  const auto [heard_at, heard_fired] = loud_arrival(true);
  EXPECT_EQ(unheard_at, heard_at);
  EXPECT_EQ(unheard_fired, 1u);
  EXPECT_EQ(heard_fired, 6u);
}

TEST_F(MessageBusTest, DuplicateFaultDeliversTwiceInOrderWithOneOffset) {
  sim::FaultPlanOptions faults;
  faults.bus_duplicate_rate = 1.0;
  sim::FaultPlan plan{faults, common::Rng{5}};
  bus_->set_fault_plan(&plan);
  const TopicId t = bus_->intern("t");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // (id, offset)
  bus_->subscribe(t, [&](const BusMessage& m) {
    seen.emplace_back(worker_of(m), m.offset);
  });
  bus_->publish(t, event(7));
  bus_->publish(t, event(8));
  sim_.run();
  EXPECT_EQ(seen, (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                      {7, 0}, {7, 0}, {8, 1}, {8, 1}}));
  EXPECT_EQ(plan.counters().bus_duplicates, 2u);
}

TEST_F(MessageBusTest, TrackerRejectsAMessageOfTheWrongKind) {
  WorkerStateTracker tracker{*bus_};
  bus_->publish(bus_->intern(kWorkerStateTopic), ProvisionCommand{});
  EXPECT_THROW(sim_.run(), std::invalid_argument);
  EXPECT_EQ(tracker.events_seen(), 0u);
}

// ------------------------------------------------- engine integration -----

TEST(ControlBus, ProvisioningCommandsPayBusLatency) {
  auto run_with = [](bool bus_enabled) {
    sim::Simulator sim;
    cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
    auto profile = cluster::default_profile(workflow::SandboxKind::Container);
    profile.cold_start_jitter = Duration::zero();
    profile.concurrency_penalty = 0.0;
    cluster.catalog().set_profile(workflow::SandboxKind::Container, profile);
    PlatformCalibration calib;
    calib.overhead_jitter = Duration::zero();
    calib.worker_handoff = Duration::zero();
    calib.control_bus.enabled = bus_enabled;
    calib.control_bus.latency = Duration::from_millis(40);
    PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
    workflow::BuildOptions opts;
    opts.exec_time = Duration::from_millis(1000);
    const auto wf = engine.register_workflow(workflow::linear_chain(1, opts));
    return engine.run_one(wf).end_to_end.millis();
  };
  const double direct = run_with(false);
  const double with_bus = run_with(true);
  // The bus adds exactly its one-way latency to the provisioning path.
  EXPECT_NEAR(with_bus - direct, 40.0, 1.0);
}

TEST(ControlBus, EngineExposesBusOnlyWhenEnabled) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  EXPECT_EQ(engine.control_bus(), nullptr);

  calib.control_bus.enabled = true;
  cluster::Cluster cluster2{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformEngine engine2{sim, cluster2, calib, nullptr, common::Rng{11}};
  ASSERT_NE(engine2.control_bus(), nullptr);
  // Each host has a daemon subscription.
  MessageBus& bus = *engine2.control_bus();
  EXPECT_EQ(bus.subscriber_count(bus.intern("daemon.0")), 1u);
}

TEST(ControlBus, FullChainRunsOverBus) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  const auto wf = engine.register_workflow(workflow::linear_chain(4, opts));
  const RequestResult result = engine.run_one(wf);
  EXPECT_EQ(result.executed_nodes, 4u);
  EXPECT_EQ(result.cold_starts, 4u);
  // One provisioning command per cold start traversed the bus, plus four
  // lifecycle events (provisioning/ready/busy/idle) per worker.
  EXPECT_EQ(engine.control_bus()->published_count(), 4u + 16u);
  // Only the daemon commands had subscribers; nothing consumed the
  // lifecycle events in this test.
  EXPECT_EQ(engine.control_bus()->delivered_count(), 4u);
}

TEST(ControlBus, WorkerStateTrackerMirrorsFleet) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  calib.control_bus.latency = Duration::from_millis(5);
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  WorkerStateTracker tracker{*engine.control_bus()};

  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  const auto wf = engine.register_workflow(workflow::linear_chain(3, opts));
  (void)engine.run_one(wf);
  // Let the trailing idle events drain (bus latency after completion).
  sim.run_until(sim.now() + 1_s);

  // After the request: three warm workers, all known to the tracker.
  EXPECT_EQ(tracker.live_count(), 3u);
  EXPECT_EQ(tracker.count(WorkerEventKind::Idle), 3u);
  EXPECT_EQ(tracker.count(WorkerEventKind::Busy), 0u);
  const auto fn0 = engine.function_id(wf, common::NodeId{0});
  EXPECT_EQ(tracker.function_count(fn0), 1u);
  // Each worker produced provisioning/ready/busy/idle.
  EXPECT_EQ(tracker.events_seen(), 12u);
  EXPECT_STREQ(to_string(WorkerEventKind::Ready), "ready");

  // Tear the fleet down: dead events bring the view back to zero.
  engine.flush_all_warm_workers();
  sim.run_until(sim.now() + 1_s);
  EXPECT_EQ(tracker.live_count(), 0u);
}

TEST(ControlBus, DaemonRejectsAMessageOfTheWrongKind) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  MessageBus& bus = *engine.control_bus();
  bus.publish(bus.intern("daemon.0"), event(1));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

}  // namespace
}  // namespace xanadu::platform
