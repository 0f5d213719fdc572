// Tests for platform calibrations, the dispatch-manager facade, the metrics
// cost/penalty math, the report table printer, open-loop load behaviour and
// platform behaviour at cluster capacity limits.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dispatch_manager.hpp"
#include "metrics/cost.hpp"
#include "metrics/report.hpp"
#include "platform/calibration.hpp"
#include "sim/fault_plan.hpp"
#include "sim/probe.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;
using sim::Duration;

// -------------------------------------------------------- calibrations ----

TEST(Calibration, PresetsEncodeThePaperOrdering) {
  const auto xanadu = platform::xanadu_calibration();
  const auto knative = platform::knative_like_calibration();
  const auto openwhisk = platform::openwhisk_like_calibration();
  const auto asf = platform::asf_like_calibration();
  const auto adf = platform::adf_like_calibration();

  // Provisioning pipelines: Knative heaviest, then OpenWhisk ~ Xanadu.
  EXPECT_GT(knative.provision_extra, openwhisk.provision_extra);
  EXPECT_GT(openwhisk.provision_extra, Duration::zero());
  EXPECT_GT(xanadu.provision_extra, Duration::zero());

  // Lightweight sandboxes skip most of the container pipeline.
  EXPECT_LT(xanadu.provision_extra_process, xanadu.provision_extra);
  EXPECT_LT(xanadu.provision_extra_isolate, xanadu.provision_extra_process);

  // Keep-alive: ADF ~2x ASF (Figure 5's knees at ~10 and ~20 minutes).
  EXPECT_EQ(asf.keep_alive, Duration::from_minutes(10));
  EXPECT_EQ(adf.keep_alive, Duration::from_minutes(20));

  // Cloud platforms override the container profile with fast microVMs.
  ASSERT_TRUE(asf.container_profile.has_value());
  ASSERT_TRUE(adf.container_profile.has_value());
  EXPECT_LT(asf.container_profile->cold_start_base, Duration::from_millis(1000));
  // ADF is the noisier platform (Section 2.3).
  EXPECT_GT(adf.overhead_jitter, asf.overhead_jitter);

  // Only OpenWhisk standalone caps live workers.
  EXPECT_GT(openwhisk.max_live_workers, 0);
  EXPECT_LT(knative.max_live_workers, 0);
  EXPECT_LT(xanadu.max_live_workers, 0);
}

TEST(Calibration, ProvisionExtraForSelectsByKind) {
  const auto calib = platform::xanadu_calibration();
  using workflow::SandboxKind;
  EXPECT_EQ(calib.provision_extra_for(SandboxKind::Container),
            calib.provision_extra);
  EXPECT_EQ(calib.provision_extra_for(SandboxKind::Process),
            calib.provision_extra_process);
  EXPECT_EQ(calib.provision_extra_for(SandboxKind::Isolate),
            calib.provision_extra_isolate);
}

// ----------------------------------------------------- dispatch manager ---

TEST(DispatchManager, PlatformKindNamesRoundTrip) {
  for (const PlatformKind kind :
       {PlatformKind::XanaduCold, PlatformKind::XanaduSpeculative,
        PlatformKind::XanaduJit, PlatformKind::KnativeLike,
        PlatformKind::OpenWhiskLike, PlatformKind::AsfLike,
        PlatformKind::AdfLike, PlatformKind::PrewarmAll}) {
    EXPECT_NE(std::string{core::to_string(kind)}, "unknown");
  }
}

TEST(DispatchManager, XanaduPolicyOnlyForXanaduKinds) {
  for (const auto& [kind, has_policy] :
       {std::pair{PlatformKind::XanaduJit, true},
        std::pair{PlatformKind::XanaduCold, true},
        std::pair{PlatformKind::KnativeLike, false},
        std::pair{PlatformKind::PrewarmAll, false}}) {
    DispatchManagerOptions options;
    options.kind = kind;
    DispatchManager manager{options};
    EXPECT_EQ(manager.xanadu_policy() != nullptr, has_policy)
        << core::to_string(kind);
  }
}

TEST(DispatchManager, CalibrationOverrideWins) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  auto calib = platform::xanadu_calibration();
  calib.dispatch_latency = Duration::from_millis(500);
  calib.overhead_jitter = Duration::zero();
  calib.worker_handoff = Duration::zero();
  options.calibration = calib;
  DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(1));
  const auto result = manager.invoke(wf);
  // Dispatch 500 ms is visible in the overhead.
  EXPECT_GT(result.overhead.millis(), 3400.0);
}

TEST(DispatchManager, IdleForAdvancesVirtualTime) {
  DispatchManagerOptions options;
  DispatchManager manager{options};
  const auto before = manager.simulator().now();
  manager.idle_for(Duration::from_minutes(3));
  EXPECT_EQ((manager.simulator().now() - before).seconds(), 180.0);
}

TEST(DispatchManager, ForceColdStartKillsWarmPool) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(2));
  (void)manager.invoke(wf);
  EXPECT_GT(manager.cluster().live_worker_count(), 0u);
  manager.force_cold_start();
  EXPECT_EQ(manager.cluster().live_worker_count(), 0u);
}

/// The probe samples and the recovery ledger read at the end of one run.
struct ProbedRun {
  std::vector<sim::ProbeSample> samples;
  platform::RecoveryStats recovery;
};

/// One bus-enabled XanaduJit run (six cold 3-node chains, 2 s apart, on three
/// hosts) under `faults` with recovery on.
ProbedRun run_probed(const sim::FaultPlanOptions& faults) {
  DispatchManagerOptions options;
  options.cluster.host_count = 3;
  platform::PlatformCalibration calibration = platform::xanadu_calibration();
  calibration.control_bus.enabled = true;
  options.calibration = calibration;
  options.faults = faults;
  options.recovery.enabled = true;
  DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(120);
  const auto wf = manager.deploy(workflow::linear_chain(3, build));
  workload::RunOptions run;
  run.allow_incomplete = true;
  run.drain_after_last = true;
  run.force_cold_each_request = true;
  (void)workload::run_schedule(
      manager, wf, workload::fixed_interval(6, Duration::from_seconds(2)), run);
  return {manager.probes().sample(), manager.recovery_stats()};
}

/// The samples whose name starts with "recovery.", in registration order.
std::vector<sim::ProbeSample> recovery_samples(const ProbedRun& run) {
  std::vector<sim::ProbeSample> out;
  for (const sim::ProbeSample& sample : run.samples) {
    if (sample.first.starts_with("recovery.")) out.push_back(sample);
  }
  return out;
}

TEST(DispatchManager, ProbeVocabularyAndRecoveryCountersArePinned) {
  // The race detector names the first divergent probe, so the names and
  // their registration order are what a tie-race report speaks.
  const std::vector<std::string> expected_names = {
      "engine.inflight_requests",     "engine.registered_functions",
      "engine.state_digest",          "warm_pool.pooled_workers",
      "warm_pool.keep_alive_timers",  "warm_pool.inbound_rebinds",
      "pipeline.provisions_inflight", "pipeline.redirects_pending",
      "pipeline.provisions_started",  "pipeline.provisions_completed",
      "recovery.command_retries",     "recovery.builds_abandoned",
      "recovery.node_retries",        "recovery.requests_failed",
      "recovery.orphans_reaped",      "recovery.outage_worker_kills",
      "bus.published",                "bus.delivered",
      "bus.dropped"};

  const ProbedRun clean = run_probed(sim::FaultPlanOptions{});
  std::vector<std::string> names;
  for (const sim::ProbeSample& sample : clean.samples) {
    names.push_back(sample.first);
  }
  EXPECT_EQ(names, expected_names);
  const std::vector<sim::ProbeSample> clean_recovery = recovery_samples(clean);
  ASSERT_EQ(clean_recovery.size(), 6u);
  for (const sim::ProbeSample& sample : clean_recovery) {
    EXPECT_EQ(sample.second, 0u) << sample.first;
  }

  sim::FaultPlanOptions faults;
  faults.worker_crash_rate = 0.3;
  faults.host_outage_rate_per_hour = 600.0;  // mean gap 6 s
  faults.host_downtime = Duration::from_seconds(2);
  const ProbedRun faulted = run_probed(faults);
  const platform::RecoveryStats& stats = faulted.recovery;
  const std::vector<sim::ProbeSample> expected_recovery = {
      {"recovery.command_retries", stats.command_retries},
      {"recovery.builds_abandoned", stats.builds_abandoned},
      {"recovery.node_retries", stats.node_retries},
      {"recovery.requests_failed", stats.requests_failed},
      {"recovery.orphans_reaped", stats.orphans_reaped},
      {"recovery.outage_worker_kills", stats.outage_worker_kills}};
  EXPECT_EQ(recovery_samples(faulted), expected_recovery);
  EXPECT_GT(stats.outage_worker_kills, 0u);
  EXPECT_GT(stats.node_retries, 0u);
}

// -------------------------------------------------------------- metrics ---

TEST(Cost, ResourceCostDerivesFromLedger) {
  cluster::ResourceLedger delta;
  delta.provision_cpu_core_seconds = 10.0;
  delta.pre_use_idle_cpu_core_seconds = 2.0;
  delta.idle_cpu_core_seconds = 5.0;
  delta.pre_use_memory_mb_seconds = 100.0;
  delta.idle_memory_mb_seconds = 300.0;
  delta.workers_provisioned = 4;
  delta.workers_wasted = 1;
  const auto cost = metrics::resource_cost(delta);
  EXPECT_DOUBLE_EQ(cost.cpu_core_seconds, 12.0);  // provision + pre-use idle
  EXPECT_DOUBLE_EQ(cost.memory_mb_seconds, 100.0);
  EXPECT_DOUBLE_EQ(cost.idle_cpu_core_seconds, 5.0);
  EXPECT_DOUBLE_EQ(cost.idle_memory_mb_seconds, 300.0);
  EXPECT_EQ(cost.workers_provisioned, 4u);
  EXPECT_EQ(cost.workers_wasted, 1u);
}

TEST(Cost, PenaltyIsProductOfCostAndOverhead) {
  metrics::ResourceCost cost;
  cost.cpu_core_seconds = 3.0;
  cost.memory_mb_seconds = 200.0;
  const auto penalty = metrics::penalty(cost, Duration::from_seconds(2));
  EXPECT_DOUBLE_EQ(penalty.phi_cpu_s2, 6.0);
  EXPECT_DOUBLE_EQ(penalty.phi_memory_mb_s2, 400.0);
}

TEST(Report, TableAlignsAndValidates) {
  metrics::Table table{{"name", "value"}};
  table.add_row({"alpha", "1"});
  table.add_row({"beta-longer", "22"});
  EXPECT_EQ(table.rows(), 2u);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("beta-longer"), std::string::npos);
  // Every line has the same width.
  std::size_t width = text.find('\n');
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t next = text.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
  EXPECT_THROW(table.add_row({"only-one-cell"}), std::invalid_argument);
  EXPECT_THROW(metrics::Table{{}}, std::invalid_argument);
}

TEST(Report, Formatters) {
  EXPECT_EQ(metrics::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(metrics::fmt_ms(1234.6, 0), "1235ms");
  EXPECT_EQ(metrics::fmt_s(2.5, 1), "2.5s");
  EXPECT_EQ(metrics::fmt_pct(0.123, 1), "12.3%");
}

// ---------------------------------------------------------- open loop -----

TEST(OpenLoopLoad, ManyConcurrentRequestsComplete) {
  // Stress: 200 Poisson arrivals at ~1 req / 2 s against 5 s chains means
  // dozens of requests in flight simultaneously; every one must complete
  // and the ledger must stay consistent.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_seconds(5);
  const auto wf = manager.deploy(workflow::linear_chain(4, build));

  common::Rng rng{99};
  const auto schedule = workload::poisson(Duration::from_seconds(2),
                                          Duration::from_seconds(400), rng);
  ASSERT_GT(schedule.size(), 150u);
  const auto outcome = workload::run_schedule(manager, wf, schedule);
  EXPECT_EQ(outcome.results.size(), schedule.size());
  for (const auto& result : outcome.results) {
    EXPECT_EQ(result.executed_nodes, 4u);
    EXPECT_GE(result.overhead, Duration::zero());
  }
  // Under sustained load most requests run warm.
  EXPECT_LT(outcome.mean_cold_starts(), 1.0);
}

TEST(OpenLoopLoad, DeterministicUnderConcurrency) {
  auto run_once = [] {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduSpeculative;
    options.seed = 1234;
    DispatchManager manager{options};
    workflow::BuildOptions build;
    build.exec_time = Duration::from_seconds(3);
    const auto wf = manager.deploy(workflow::linear_chain(3, build));
    common::Rng rng{55};
    const auto schedule = workload::poisson(Duration::from_seconds(4),
                                            Duration::from_seconds(120), rng);
    const auto outcome = workload::run_schedule(manager, wf, schedule);
    return outcome.mean_overhead_ms();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// ------------------------------------------------ capacity exhaustion -----

TEST(CapacityLimits, EngineThrowsWhenClusterIsFull) {
  // A cluster that can fit two workers; a 3-deep chain with long-lived
  // warm workers exhausts it.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  options.cluster.host_count = 1;
  options.cluster.memory_mb_per_host = 1200;  // Two (512+64) MB workers.
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(300);
  const auto wf = manager.deploy(workflow::linear_chain(3, build));
  EXPECT_THROW(manager.invoke(wf), std::runtime_error);
}

TEST(CapacityLimits, KeepAliveReclaimFreesCapacityForLaterRequests) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  options.cluster.host_count = 1;
  options.cluster.memory_mb_per_host = 1200;
  auto calib = platform::xanadu_calibration();
  calib.keep_alive = Duration::from_seconds(30);
  options.calibration = calib;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(300);
  const auto wf = manager.deploy(workflow::linear_chain(2, build));
  (void)manager.invoke(wf);  // Fills the cluster with two warm workers.
  // After keep-alive reclaim, the next request provisions fresh workers.
  manager.idle_for(Duration::from_seconds(40));
  EXPECT_EQ(manager.cluster().live_worker_count(), 0u);
  const auto result = manager.invoke(wf);
  EXPECT_EQ(result.executed_nodes, 2u);
}

TEST(CapacityLimits, LiveWorkerCapKeepsClusterWithinBounds) {
  // The OpenWhisk-style cap evicts warm workers instead of overflowing.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::OpenWhiskLike;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(300);
  const auto wf = manager.deploy(workflow::linear_chain(6, build));
  (void)manager.invoke(wf);
  EXPECT_LE(manager.cluster().live_worker_count(), 5u);
}

}  // namespace
}  // namespace xanadu
