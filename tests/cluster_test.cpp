// Unit tests for the cluster substrate: sandbox profiles, worker lifecycle
// and resource accounting, host capacity, cluster placement.

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/host.hpp"
#include "cluster/sandbox.hpp"
#include "cluster/worker.hpp"

namespace xanadu::cluster {
namespace {

using common::FunctionId;
using common::HostId;
using common::WorkerId;
using sim::Duration;
using sim::TimePoint;
using workflow::SandboxKind;

TimePoint at_seconds(double s) {
  return TimePoint{} + Duration::from_seconds(s);
}

// ------------------------------------------------------------- sandbox ----

TEST(Sandbox, DefaultProfilesMatchPaperOrdering) {
  const auto container = default_profile(SandboxKind::Container);
  const auto process = default_profile(SandboxKind::Process);
  const auto isolate = default_profile(SandboxKind::Isolate);
  // Containers have the highest cold start (~3000 ms, Section 1); processes
  // ~1000 ms; isolates the cheapest.
  EXPECT_GT(container.cold_start_base, process.cold_start_base);
  EXPECT_GE(process.cold_start_base, isolate.cold_start_base);
  EXPECT_NEAR(container.cold_start_base.millis(), 3000.0, 500.0);
  EXPECT_NEAR(process.cold_start_base.millis(), 1000.0, 300.0);
  // Containers also cost the most CPU to provision and carry the largest
  // concurrency penalty (the Docker bottleneck).
  EXPECT_GT(container.provision_cpu_core_seconds, process.provision_cpu_core_seconds);
  EXPECT_GT(container.concurrency_penalty, isolate.concurrency_penalty);
}

TEST(Sandbox, CatalogOverride) {
  SandboxCatalog catalog;
  SandboxProfile custom = default_profile(SandboxKind::Container);
  custom.cold_start_base = Duration::from_millis(100);
  catalog.set_profile(SandboxKind::Container, custom);
  EXPECT_EQ(catalog.profile(SandboxKind::Container).cold_start_base,
            Duration::from_millis(100));
  // Other kinds are untouched.
  EXPECT_NEAR(catalog.profile(SandboxKind::Process).cold_start_base.millis(),
              1150.0, 1.0);
}

TEST(Sandbox, ProfileValidation) {
  SandboxProfile bad = default_profile(SandboxKind::Container);
  bad.cold_start_base = Duration::from_millis(-1);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = default_profile(SandboxKind::Container);
  bad.provision_cpu_core_seconds = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --------------------------------------------------------------- worker ---

class WorkerTest : public ::testing::Test {
 protected:
  ResourceLedger ledger_;
  SandboxProfile profile_ = default_profile(SandboxKind::Container);

  Worker make_worker(TimePoint start = TimePoint{}) {
    return Worker{WorkerId{1}, FunctionId{1}, HostId{0},
                  SandboxKind::Container, 512.0, profile_, ledger_, start};
  }
};

TEST_F(WorkerTest, ProvisioningChargesCpuOnReady) {
  Worker w = make_worker();
  EXPECT_EQ(w.state(), WorkerState::Provisioning);
  EXPECT_EQ(ledger_.workers_provisioned, 1u);
  EXPECT_DOUBLE_EQ(ledger_.provision_cpu_core_seconds, 0.0);
  w.mark_ready(at_seconds(3));
  EXPECT_EQ(w.state(), WorkerState::Warm);
  EXPECT_DOUBLE_EQ(ledger_.provision_cpu_core_seconds,
                   profile_.provision_cpu_core_seconds);
}

TEST_F(WorkerTest, TotalMemoryIncludesSandboxOverhead) {
  Worker w = make_worker();
  EXPECT_DOUBLE_EQ(w.total_memory_mb(), 512.0 + profile_.memory_overhead_mb);
}

TEST_F(WorkerTest, PreUseIdleChargedOnFirstExecution) {
  Worker w = make_worker();
  w.mark_ready(at_seconds(3));
  w.begin_execution(at_seconds(13));  // 10 s idle before first use.
  const double mem = 512.0 + profile_.memory_overhead_mb;
  EXPECT_DOUBLE_EQ(ledger_.pre_use_memory_mb_seconds, mem * 10.0);
  EXPECT_DOUBLE_EQ(ledger_.pre_use_idle_cpu_core_seconds,
                   profile_.idle_cpu_fraction * 10.0);
  EXPECT_DOUBLE_EQ(ledger_.idle_memory_mb_seconds, mem * 10.0);
  EXPECT_EQ(ledger_.executions, 1u);
}

TEST_F(WorkerTest, PostUseIdleNotCountedAsPreUse) {
  Worker w = make_worker();
  w.mark_ready(at_seconds(1));
  w.begin_execution(at_seconds(1));
  w.end_execution(at_seconds(2));
  w.begin_execution(at_seconds(12));  // 10 s idle between uses.
  const double mem = 512.0 + profile_.memory_overhead_mb;
  EXPECT_DOUBLE_EQ(ledger_.pre_use_memory_mb_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ledger_.idle_memory_mb_seconds, mem * 10.0);
}

TEST_F(WorkerTest, NeverUsedWorkerCountsAsWasted) {
  Worker w = make_worker();
  w.mark_ready(at_seconds(3));
  w.terminate(at_seconds(8));
  EXPECT_EQ(ledger_.workers_wasted, 1u);
  const double mem = 512.0 + profile_.memory_overhead_mb;
  EXPECT_DOUBLE_EQ(ledger_.pre_use_memory_mb_seconds, mem * 5.0);
}

TEST_F(WorkerTest, UsedWorkerNotWasted) {
  Worker w = make_worker();
  w.mark_ready(at_seconds(1));
  w.begin_execution(at_seconds(1));
  w.end_execution(at_seconds(2));
  w.terminate(at_seconds(3));
  EXPECT_EQ(ledger_.workers_wasted, 0u);
}

TEST_F(WorkerTest, CancelledProvisioningStillChargesCpu) {
  Worker w = make_worker();
  w.terminate(at_seconds(1));  // Killed mid-provisioning.
  EXPECT_DOUBLE_EQ(ledger_.provision_cpu_core_seconds,
                   profile_.provision_cpu_core_seconds);
  EXPECT_EQ(ledger_.workers_wasted, 1u);
}

TEST_F(WorkerTest, IllegalTransitionsThrow) {
  Worker w = make_worker();
  EXPECT_THROW(w.begin_execution(at_seconds(1)), std::logic_error);
  w.mark_ready(at_seconds(1));
  EXPECT_THROW(w.mark_ready(at_seconds(2)), std::logic_error);
  EXPECT_THROW(w.end_execution(at_seconds(2)), std::logic_error);
  w.begin_execution(at_seconds(2));
  EXPECT_THROW(w.terminate(at_seconds(3)), std::logic_error);  // Busy.
  w.end_execution(at_seconds(3));
  w.terminate(at_seconds(4));
  EXPECT_THROW(w.terminate(at_seconds(5)), std::logic_error);  // Dead.
}

TEST(ResourceLedger, ArithmeticRoundTrips) {
  ResourceLedger a;
  a.provision_cpu_core_seconds = 10;
  a.idle_memory_mb_seconds = 100;
  a.workers_provisioned = 5;
  ResourceLedger b;
  b.provision_cpu_core_seconds = 4;
  b.idle_memory_mb_seconds = 40;
  b.workers_provisioned = 2;
  ResourceLedger sum = b;
  sum += a;
  const ResourceLedger diff = sum - a;
  EXPECT_DOUBLE_EQ(diff.provision_cpu_core_seconds, 4);
  EXPECT_DOUBLE_EQ(diff.idle_memory_mb_seconds, 40);
  EXPECT_EQ(diff.workers_provisioned, 2u);
}

// ----------------------------------------------------------------- host ---

TEST(Host, MemoryReservation) {
  Host host{HostId{0}, 1000.0};
  EXPECT_TRUE(host.try_reserve_memory(600.0));
  EXPECT_FALSE(host.try_reserve_memory(600.0));  // Would exceed capacity.
  EXPECT_TRUE(host.try_reserve_memory(400.0));
  host.release_memory(500.0);
  EXPECT_DOUBLE_EQ(host.memory_free_mb(), 500.0);
  EXPECT_THROW(host.release_memory(600.0), std::logic_error);
}

TEST(Host, ProvisioningCounter) {
  Host host{HostId{0}, 1000.0};
  host.provisioning_started();
  host.provisioning_started();
  EXPECT_EQ(host.inflight_provisions(), 2u);
  host.provisioning_finished();
  host.provisioning_finished();
  EXPECT_THROW(host.provisioning_finished(), std::logic_error);
}

TEST(Host, ConstructorValidation) {
  EXPECT_THROW((Host{HostId{0}, -1.0}), std::invalid_argument);
}

// -------------------------------------------------------------- cluster ---

TEST(Cluster, PlacementPrefersEmptierHost) {
  ClusterOptions options;
  options.host_count = 2;
  options.memory_mb_per_host = 2048;
  Cluster cluster{options, common::Rng{1}};
  auto h1 = cluster.place(512);
  ASSERT_TRUE(h1.has_value());
  Worker* w = cluster.start_provisioning(FunctionId{0}, SandboxKind::Container,
                                         512, *h1, TimePoint{});
  ASSERT_NE(w, nullptr);
  auto h2 = cluster.place(512);
  ASSERT_TRUE(h2.has_value());
  EXPECT_NE(*h1, *h2);  // Least-loaded placement alternates.
}

TEST(Cluster, PlacementFailsWhenFull) {
  ClusterOptions options;
  options.host_count = 1;
  options.memory_mb_per_host = 600;
  Cluster cluster{options, common::Rng{1}};
  const auto host = cluster.place(512);
  ASSERT_TRUE(host.has_value());
  ASSERT_NE(cluster.start_provisioning(FunctionId{0}, SandboxKind::Container,
                                       512, *host, TimePoint{}),
            nullptr);
  EXPECT_FALSE(cluster.place(512).has_value());
}

TEST(Cluster, ConcurrencyPenaltyInflatesProvisionLatency) {
  ClusterOptions options;
  Cluster cluster{options, common::Rng{1}};
  // Remove jitter so the inflation is exact.
  SandboxProfile profile = default_profile(SandboxKind::Container);
  profile.cold_start_jitter = Duration::zero();
  cluster.catalog().set_profile(SandboxKind::Container, profile);

  const auto host = cluster.place(512);
  Worker* first = cluster.start_provisioning(
      FunctionId{0}, SandboxKind::Container, 512, *host, TimePoint{});
  const Duration solo = cluster.sample_provision_latency(*first);
  EXPECT_EQ(solo, profile.cold_start_base);

  // Nine more concurrent provisions: the tenth sees 9 contenders.
  Worker* last = nullptr;
  for (int i = 1; i < 10; ++i) {
    last = cluster.start_provisioning(FunctionId{static_cast<unsigned>(i)},
                                      SandboxKind::Container, 512, *host,
                                      TimePoint{});
  }
  const Duration contended = cluster.sample_provision_latency(*last);
  const double expected =
      profile.cold_start_base.millis() * (1.0 + profile.concurrency_penalty * 9);
  EXPECT_NEAR(contended.millis(), expected, 1e-6);
}

TEST(Cluster, DestroyWorkerReleasesResources) {
  ClusterOptions options;
  options.host_count = 1;
  options.memory_mb_per_host = 1200;
  Cluster cluster{options, common::Rng{1}};
  const auto host = cluster.place(512);
  Worker* w = cluster.start_provisioning(FunctionId{0}, SandboxKind::Container,
                                         512, *host, TimePoint{});
  ASSERT_NE(w, nullptr);
  const double used = cluster.host(*host).memory_used_mb();
  EXPECT_GT(used, 512.0);  // Includes sandbox overhead.
  const WorkerId id = w->id();
  cluster.destroy_worker(id, at_seconds(1));
  EXPECT_DOUBLE_EQ(cluster.host(*host).memory_used_mb(), 0.0);
  EXPECT_EQ(cluster.find_worker(id), nullptr);
  EXPECT_EQ(cluster.live_worker_count(), 0u);
  EXPECT_EQ(cluster.host(*host).inflight_provisions(), 0u);
}

TEST(Cluster, RejectsBadOptions) {
  ClusterOptions options;
  options.host_count = 0;
  EXPECT_THROW((Cluster{options, common::Rng{1}}), std::invalid_argument);
}

}  // namespace
}  // namespace xanadu::cluster
