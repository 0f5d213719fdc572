// Tests for the control-plane message bus (Kafka stand-in) and its
// integration with the platform engine's provisioning pipeline.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "platform/engine.hpp"
#include "platform/message_bus.hpp"
#include "platform/worker_state.hpp"
#include "sim/sharded.hpp"
#include "workflow/builders.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using sim::Duration;

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
  std::vector<std::string> received;
  sim::TimePoint delivered_at;
  bus_->subscribe("topic", [&](const BusMessage& m) {
    received.push_back(m.payload);
    delivered_at = sim_.now();
  });
  bus_->publish("topic", "hello");
  sim_.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  EXPECT_EQ(delivered_at.millis(), 10.0);
}

TEST_F(MessageBusTest, FanOutToAllSubscribers) {
  int a = 0, b = 0;
  bus_->subscribe("t", [&](const BusMessage&) { ++a; });
  bus_->subscribe("t", [&](const BusMessage&) { ++b; });
  bus_->publish("t", "x");
  bus_->publish("t", "y");
  sim_.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus_->published_count(), 2u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
}

TEST_F(MessageBusTest, TopicsAreIsolated) {
  int count = 0;
  bus_->subscribe("a", [&](const BusMessage&) { ++count; });
  bus_->publish("b", "x");
  sim_.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(bus_->subscriber_count("a"), 1u);
  EXPECT_EQ(bus_->subscriber_count("b"), 0u);
}

TEST_F(MessageBusTest, OffsetsAreMonotonicPerTopic) {
  EXPECT_EQ(bus_->publish("t", "0"), 0u);
  EXPECT_EQ(bus_->publish("t", "1"), 1u);
  EXPECT_EQ(bus_->publish("u", "0"), 0u);  // Independent per topic.
}

TEST_F(MessageBusTest, JitterNeverReordersWithinTopic) {
  MessageBus::Options options;
  options.latency = 5_ms;
  options.jitter = 20_ms;  // Huge jitter relative to latency.
  make_bus(options);
  std::vector<std::uint64_t> offsets;
  bus_->subscribe("t", [&](const BusMessage& m) { offsets.push_back(m.offset); });
  for (int i = 0; i < 50; ++i) bus_->publish("t", std::to_string(i));
  sim_.run();
  ASSERT_EQ(offsets.size(), 50u);
  for (std::size_t i = 0; i < offsets.size(); ++i) EXPECT_EQ(offsets[i], i);
}

TEST_F(MessageBusTest, UnsubscribeStopsFutureAndInFlightDeliveries) {
  int count = 0;
  const auto id = bus_->subscribe("t", [&](const BusMessage&) { ++count; });
  bus_->publish("t", "in-flight");
  EXPECT_TRUE(bus_->unsubscribe(id));
  bus_->publish("t", "after");
  sim_.run();
  // The handler was removed before any delivery fired.
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(bus_->unsubscribe(id));
}

TEST_F(MessageBusTest, SubscribersJoiningLaterMissOldMessages) {
  bus_->publish("t", "early");
  sim_.run();
  int count = 0;
  bus_->subscribe("t", [&](const BusMessage&) { ++count; });
  sim_.run();
  EXPECT_EQ(count, 0);
}

// -- Re-entrant handlers: delivery walks the subscriber list in place. -----

TEST_F(MessageBusTest, HandlerUnsubscribingALaterSubscriberSkipsIt) {
  std::vector<std::string> seen;
  SubscriptionId victim;
  bus_->subscribe("t", [&](const BusMessage& m) {
    seen.push_back("killer:" + m.payload);
    if (m.payload == "one") {
      EXPECT_TRUE(bus_->unsubscribe(victim));
    }
  });
  victim = bus_->subscribe(
      "t", [&](const BusMessage& m) { seen.push_back("victim:" + m.payload); });
  bus_->subscribe(
      "t", [&](const BusMessage& m) { seen.push_back("third:" + m.payload); });
  bus_->publish("t", "one");
  bus_->publish("t", "two");
  sim_.run();
  // The victim, removed before its turn, misses "one" already; the walk
  // continues to the third subscriber, and the tombstone is gone afterwards.
  EXPECT_EQ(seen, (std::vector<std::string>{"killer:one", "third:one",
                                            "killer:two", "third:two"}));
  EXPECT_EQ(bus_->subscriber_count("t"), 2u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
  EXPECT_FALSE(bus_->unsubscribe(victim));
}

TEST_F(MessageBusTest, HandlerUnsubscribingItselfFinishesThisDelivery) {
  std::vector<std::string> seen;
  SubscriptionId self;
  self = bus_->subscribe("t", [&](const BusMessage& m) {
    EXPECT_TRUE(bus_->unsubscribe(self));
    // The running handler (and what it captured) outlives its removal.
    seen.push_back("self:" + m.payload);
  });
  bus_->subscribe(
      "t", [&](const BusMessage& m) { seen.push_back("other:" + m.payload); });
  bus_->publish("t", "one");
  bus_->publish("t", "two");
  sim_.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"self:one", "other:one",
                                            "other:two"}));
  EXPECT_EQ(bus_->subscriber_count("t"), 1u);
}

TEST_F(MessageBusTest, HandlerSubscribingANewcomerStartsItAtTheNextMessage) {
  std::vector<std::string> seen;
  int joined = 0;
  bus_->subscribe("t", [&](const BusMessage& m) {
    seen.push_back("first:" + m.payload);
    // Several joins per delivery, so the list reallocates under the walk
    // while this handler is running.
    for (int k = 0; k < 8 && m.payload == "one"; ++k) {
      bus_->subscribe("t", [&seen, k](const BusMessage& later) {
        if (k == 0) seen.push_back("newcomer:" + later.payload);
      });
      ++joined;
    }
  });
  bus_->publish("t", "one");
  bus_->publish("t", "two");
  sim_.run();
  EXPECT_EQ(joined, 8);
  EXPECT_EQ(seen, (std::vector<std::string>{"first:one", "first:two",
                                            "newcomer:two"}));
  EXPECT_EQ(bus_->subscriber_count("t"), 9u);
  EXPECT_EQ(bus_->delivered_count(), 1u + 9u);
}

TEST_F(MessageBusTest, RejectsBadArguments) {
  EXPECT_THROW(bus_->subscribe("t", nullptr), std::invalid_argument);
  MessageBus::Options bad;
  bad.latency = Duration::from_millis(-1);
  EXPECT_THROW(MessageBus(sim_, bad, common::Rng{1}), std::invalid_argument);
}

TEST(sharded_bus_bridge, BridgedTopicCrossesShardsAtTheBridgeLatency) {
  // The bridge declares its own channel on the sharded driver, so a
  // publish on the tenant shard reaches the fleet shard's subscribers
  // exactly one bridge latency later.  The suite name carries "sharded"
  // for the TSan job's test filter.
  sim::ShardedSimulator driver;
  sim::Simulator tenant_sim;
  sim::Simulator fleet_sim;
  MessageBus tenant{tenant_sim, {}, common::Rng{1}};
  MessageBus fleet{fleet_sim, {}, common::Rng{2}};
  tenant.attach_shard(driver.add_shard(tenant_sim));
  fleet.attach_shard(driver.add_shard(fleet_sim));
  EXPECT_THROW(tenant.bridge_topic("workers", fleet, "fleet.workers",
                                   Duration::zero()),
               std::invalid_argument);
  tenant.bridge_topic("workers", fleet, "fleet.workers", 4_ms);

  std::vector<std::pair<std::string, double>> seen;
  fleet.subscribe("fleet.workers", [&](const BusMessage& m) {
    seen.emplace_back(m.payload, fleet_sim.now().millis());
  });
  tenant_sim.schedule_at(sim::TimePoint{10'000},
                         [&] { tenant.publish("workers", "w1"); });
  driver.run(2);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "w1");
  EXPECT_EQ(seen[0].second, 14.0);
  EXPECT_EQ(tenant.bridged_out_count(), 1u);
  EXPECT_EQ(fleet.bridged_in_count(), 1u);
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
  EXPECT_EQ(engine2.control_bus()->subscriber_count("daemon.0"), 1u);
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

  // Tear the fleet down: dead events bring the view back to zero.
  engine.flush_all_warm_workers();
  sim.run_until(sim.now() + 1_s);
  EXPECT_EQ(tracker.live_count(), 0u);
}

TEST(ControlBus, WorkerEventEncodingRoundTrips) {
  WorkerEvent event;
  event.kind = WorkerEventKind::Busy;
  event.worker = common::WorkerId{17};
  event.function = common::FunctionId{3};
  event.host = common::HostId{0};
  const WorkerEvent round = decode(encode(event));
  EXPECT_EQ(round.kind, event.kind);
  EXPECT_EQ(round.worker, event.worker);
  EXPECT_EQ(round.function, event.function);
  EXPECT_EQ(round.host, event.host);
  EXPECT_THROW((void)decode("garbage"), std::invalid_argument);
  EXPECT_THROW((void)decode("9:1:1:1"), std::invalid_argument);  // Unknown kind.
  EXPECT_STREQ(to_string(WorkerEventKind::Ready), "ready");
}

}  // namespace
}  // namespace xanadu::platform
