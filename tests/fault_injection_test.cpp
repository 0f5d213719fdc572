// Fault-injection scenario and property suite (chaos harness).
//
// Exercises the seed-deterministic FaultPlan end to end: every fault class
// (bus drop / duplicate / delay, provisioning failure, worker crash, host
// outage) is run with and without the recovery machinery, asserting the
// contract of each combination -- recovery retries until requests complete
// or fail over cleanly; without recovery, faulted requests strand and the
// harness fails them at the stall horizon.  Every scenario also pins the
// PR 1 determinism contract extended over faults: same seed + same
// FaultPlanOptions => identical trace digest and identical fault counters.
//
// The parameterized sweep at the bottom is the property half: across fault
// rates {0, 0.01, 0.1, 0.5} x 5 seeds, no invariant fires, every request
// yields exactly one result (completed + failed == triggered), the resource
// ledger never goes negative, and -- thanks to the single-draw-per-message
// coupling in FaultPlan::next_bus_fault -- raising the delay rate at a
// fixed seed degrades C_D monotonically.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
#include "sim/audit.hpp"
#include "sim/fault_plan.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;

/// Restores the global audit log's mode and contents on scope exit.
class AuditGuard {
 public:
  AuditGuard() : saved_mode_(sim::audit::log().mode()) {
    sim::audit::log().clear();
  }
  ~AuditGuard() {
    sim::audit::log().set_mode(saved_mode_);
    sim::audit::log().clear();
  }

 private:
  sim::audit::Mode saved_mode_;
};

struct ScenarioOptions {
  sim::FaultPlanOptions faults;
  bool recovery = true;
  std::uint64_t seed = 42;
  std::size_t requests = 6;
  std::size_t hosts = 4;
  std::size_t chain_length = 3;
  bool cold_each = true;
  PlatformKind kind = PlatformKind::XanaduJit;
};

struct ScenarioResult {
  workload::RunOutcome outcome;
  sim::FaultCounters faults;
  platform::RecoveryStats recovery;
  std::uint64_t digest = 0;
};

workflow::WorkflowDag scenario_dag(std::size_t length) {
  workflow::BuildOptions build;
  build.exec_time = sim::Duration::from_millis(120);
  return workflow::linear_chain(length, build);
}

/// Runs `requests` arrivals (2 s apart) of a linear chain under the given
/// fault plan and returns results + counters + the trace digest.  The bus is
/// enabled so message faults have a surface; allow_incomplete turns strands
/// into clean failures instead of harness exceptions.
ScenarioResult run_scenario(const ScenarioOptions& scenario) {
  DispatchManagerOptions options;
  options.kind = scenario.kind;
  options.seed = scenario.seed;
  options.cluster.host_count = scenario.hosts;
  platform::PlatformCalibration calibration = platform::xanadu_calibration();
  calibration.control_bus.enabled = true;
  options.calibration = calibration;
  options.faults = scenario.faults;
  options.recovery.enabled = scenario.recovery;
  DispatchManager manager{options};

  const workflow::WorkflowDag dag = scenario_dag(scenario.chain_length);
  const auto wf = manager.deploy(scenario_dag(scenario.chain_length));

  workload::RunOptions run;
  run.allow_incomplete = true;
  run.drain_after_last = true;
  run.force_cold_each_request = scenario.cold_each;

  ScenarioResult result;
  result.outcome = workload::run_schedule(
      manager, wf,
      workload::fixed_interval(scenario.requests,
                               sim::Duration::from_seconds(2)),
      run);
  result.faults = manager.fault_counters();
  result.recovery = manager.recovery_stats();
  result.digest = metrics::trace_digest(result.outcome.results, dag);
  return result;
}

/// Every result slot is filled, completed or failed -- the fault layer's
/// conservation law.
void expect_conservation(const ScenarioResult& result,
                         std::size_t triggered) {
  EXPECT_EQ(result.outcome.results.size(), triggered);
  EXPECT_EQ(result.outcome.completed_count() + result.outcome.failed_count(),
            triggered);
}

// ---------------------------------------------------------------------------
// Message-bus faults.
// ---------------------------------------------------------------------------

TEST(fault_injection, BusDropsAreRetriedUntilEveryRequestCompletes) {
  ScenarioOptions scenario;
  scenario.faults.bus_drop_rate = 0.3;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.bus_drops, 0u);
  // Dropped daemon commands were re-published after the ack timeout ...
  EXPECT_GT(result.recovery.command_retries, 0u);
  // ... so no request stranded.
  EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);
}

TEST(fault_injection, TotalBusLossFailsRequestsCleanlyWithRecovery) {
  // Every command and every retry is dropped: recovery cannot win, but it
  // must lose cleanly -- bounded retries, then a failed result per request.
  ScenarioOptions scenario;
  scenario.faults.bus_drop_rate = 1.0;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_EQ(result.outcome.completed_count(), 0u);
  EXPECT_EQ(result.recovery.requests_failed, scenario.requests);
  EXPECT_GT(result.recovery.command_retries, 0u);
  EXPECT_GT(result.recovery.builds_abandoned, 0u);
  for (const auto& r : result.outcome.results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failure_reason.find("retries exhausted"), std::string::npos)
        << r.failure_reason;
  }
}

TEST(fault_injection, TotalBusLossWithoutRecoveryStrandsEveryRequest) {
  ScenarioOptions scenario;
  scenario.faults.bus_drop_rate = 1.0;
  scenario.recovery = false;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_EQ(result.outcome.completed_count(), 0u);
  // The engine never retried anything; the run harness failed the strays.
  EXPECT_EQ(result.recovery.command_retries, 0u);
  EXPECT_EQ(result.recovery.node_retries, 0u);
  for (const auto& r : result.outcome.results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failure_reason.find("stranded"), std::string::npos)
        << r.failure_reason;
  }
}

TEST(fault_injection, DuplicatedCommandsAreIdempotent) {
  // Duplicate deliveries must not double-build sandboxes: the daemon acks
  // the first copy and ignores the second.
  ScenarioOptions scenario;
  scenario.faults.bus_duplicate_rate = 0.6;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.bus_duplicates, 0u);
  EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);
  EXPECT_EQ(result.recovery.requests_failed, 0u);
}

TEST(fault_injection, DelayedMessagesSlowRequestsButLoseNothing) {
  ScenarioOptions scenario;
  scenario.faults.bus_delay_rate = 0.8;
  scenario.faults.bus_extra_delay = sim::Duration::from_millis(300);
  const ScenarioResult faulted = run_scenario(scenario);
  expect_conservation(faulted, scenario.requests);
  EXPECT_GT(faulted.faults.bus_delays, 0u);
  EXPECT_DOUBLE_EQ(faulted.outcome.completion_rate(), 1.0);

  ScenarioOptions clean = scenario;
  clean.faults = sim::FaultPlanOptions{};
  const ScenarioResult baseline = run_scenario(clean);
  // 300 ms on ~80% of daemon commands dwarfs dispatch jitter: the faulted
  // run must be visibly slower end to end.
  EXPECT_GT(faulted.outcome.mean_end_to_end_ms(),
            baseline.outcome.mean_end_to_end_ms());
}

// ---------------------------------------------------------------------------
// Worker and host faults.
// ---------------------------------------------------------------------------

TEST(fault_injection, ProvisionFailuresAreReplacedByRecovery) {
  ScenarioOptions scenario;
  scenario.faults.provision_failure_rate = 0.25;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.provision_failures, 0u);
  EXPECT_GT(result.recovery.builds_abandoned, 0u);
  EXPECT_GT(result.recovery.node_retries, 0u);
  // A 25% per-build failure rate with 3 re-dispatches per node recovers
  // essentially always (per-node strand odds are 0.25^4).
  EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);
}

TEST(fault_injection, CertainProvisionFailureExhaustsRetriesCleanly) {
  ScenarioOptions scenario;
  scenario.faults.provision_failure_rate = 1.0;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_EQ(result.outcome.completed_count(), 0u);
  EXPECT_EQ(result.recovery.requests_failed, scenario.requests);
  for (const auto& r : result.outcome.results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failure_reason.find("sandbox build failed"),
              std::string::npos)
        << r.failure_reason;
  }
}

TEST(fault_injection, ProvisionFailureWithoutRecoveryStrands) {
  ScenarioOptions scenario;
  scenario.faults.provision_failure_rate = 1.0;
  scenario.recovery = false;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_EQ(result.outcome.completed_count(), 0u);
  EXPECT_EQ(result.recovery.node_retries, 0u);
}

TEST(fault_injection, WorkerCrashesAreRedispatched) {
  ScenarioOptions scenario;
  scenario.faults.worker_crash_rate = 0.3;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.worker_crashes, 0u);
  EXPECT_GT(result.recovery.node_retries, 0u);
  EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);
}

TEST(fault_injection, CertainWorkerCrashWithoutRecoveryStrands) {
  ScenarioOptions scenario;
  scenario.faults.worker_crash_rate = 1.0;
  scenario.recovery = false;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  // The first node's execution crashes and is never re-dispatched.
  EXPECT_EQ(result.outcome.completed_count(), 0u);
  EXPECT_GT(result.faults.worker_crashes, 0u);
  EXPECT_EQ(result.recovery.node_retries, 0u);
}

TEST(fault_injection, HostOutagesAreSurvivedWithRecovery) {
  ScenarioOptions scenario;
  scenario.faults.host_outage_rate_per_hour = 600.0;  // mean gap 6 s
  scenario.faults.host_downtime = sim::Duration::from_seconds(2);
  scenario.hosts = 3;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.host_outages, 0u);
  // Outages during this workload land on live workers; recovery either
  // re-dispatches (completion) or fails over after bounded retries --
  // nothing may strand or vanish.
  EXPECT_GT(result.outcome.completed_count(), 0u);
}

TEST(fault_injection, StragglersOnlySlowProvisioning) {
  ScenarioOptions scenario;
  scenario.faults.straggler_rate = 0.5;
  scenario.faults.straggler_multiplier = 3.0;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  EXPECT_GT(result.faults.stragglers, 0u);
  EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);

  ScenarioOptions clean = scenario;
  clean.faults = sim::FaultPlanOptions{};
  const ScenarioResult baseline = run_scenario(clean);
  EXPECT_GT(result.outcome.mean_end_to_end_ms(),
            baseline.outcome.mean_end_to_end_ms());
}

// ---------------------------------------------------------------------------
// Determinism across faulted runs.
// ---------------------------------------------------------------------------

TEST(fault_injection, EveryFaultClassReplaysBitIdenticallyPerSeed) {
  std::vector<std::pair<const char*, ScenarioOptions>> scenarios;
  {
    ScenarioOptions s;
    s.faults.bus_drop_rate = 0.2;
    scenarios.emplace_back("drop", s);
  }
  {
    ScenarioOptions s;
    s.faults.bus_duplicate_rate = 0.5;
    scenarios.emplace_back("duplicate", s);
  }
  {
    ScenarioOptions s;
    s.faults.bus_delay_rate = 0.5;
    scenarios.emplace_back("delay", s);
  }
  {
    ScenarioOptions s;
    s.faults.provision_failure_rate = 0.4;
    scenarios.emplace_back("provision-fail", s);
  }
  {
    ScenarioOptions s;
    s.faults.worker_crash_rate = 0.4;
    scenarios.emplace_back("worker-crash", s);
  }
  {
    ScenarioOptions s;
    s.faults.host_outage_rate_per_hour = 600.0;
    s.faults.host_downtime = sim::Duration::from_seconds(2);
    s.hosts = 3;
    scenarios.emplace_back("host-outage", s);
  }
  {
    ScenarioOptions s;
    s.faults.bus_drop_rate = 0.3;
    s.recovery = false;
    scenarios.emplace_back("drop-no-recovery", s);
  }

  for (auto& [name, scenario] : scenarios) {
    for (const std::uint64_t seed : {7u, 21u}) {
      scenario.seed = seed;
      const ScenarioResult first = run_scenario(scenario);
      const ScenarioResult second = run_scenario(scenario);
      EXPECT_EQ(first.digest, second.digest)
          << "scenario " << name << " seed " << seed;
      EXPECT_EQ(first.faults.total(), second.faults.total())
          << "scenario " << name << " seed " << seed;
      EXPECT_EQ(first.outcome.failed_count(), second.outcome.failed_count())
          << "scenario " << name << " seed " << seed;
    }
  }
}

TEST(fault_injection, InertFaultOptionsDoNotPerturbTheRun) {
  // Shape-only fields (extra delay, downtime, multiplier) with all rates at
  // zero must leave the engine on the exact fault-free code path: no Rng
  // fork, identical digest.
  ScenarioOptions plain;
  ScenarioOptions inert;
  inert.faults.bus_extra_delay = sim::Duration::from_millis(123);
  inert.faults.host_downtime = sim::Duration::from_seconds(99);
  inert.faults.straggler_multiplier = 9.0;
  EXPECT_EQ(run_scenario(plain).digest, run_scenario(inert).digest);
}

// ---------------------------------------------------------------------------
// Keep-alive cancellation regression.
// ---------------------------------------------------------------------------

TEST(fault_injection, KeepAliveTimersDieWithTheirWorkers) {
  // A pooled warm worker killed by a host outage must take its keep-alive
  // timer with it.  Before the fix, the timer stayed queued for the dead
  // worker: reclaim_worker would later shrug it off, but the stale event
  // kept the simulator alive and keep_alive_event_count() drifted away from
  // the pool.  The accessor-vs-pool equality below is the regression net.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  options.seed = 5;
  options.cluster.host_count = 1;
  options.faults.host_outage_rate_per_hour = 120.0;  // mean gap 30 s
  options.faults.host_downtime = sim::Duration::from_seconds(1);
  DispatchManager manager{options};

  const std::size_t chain = 3;
  const auto wf = manager.deploy(scenario_dag(chain));
  const auto result = manager.invoke(wf);
  ASSERT_FALSE(result.failed) << result.failure_reason;

  platform::PlatformEngine& engine = manager.engine();
  auto pooled_warm = [&] {
    std::size_t total = 0;
    for (std::size_t node = 0; node < chain; ++node) {
      total += engine.warm_count(engine.function_id(wf, common::NodeId{node}));
    }
    return total;
  };
  // The completed request left its workers pooled, one timer each.
  EXPECT_GT(pooled_warm(), 0u);
  EXPECT_EQ(engine.keep_alive_event_count(), pooled_warm());

  // Exactly one outage is still pending (drawn while the request was live).
  // Run it down: on the single host it must kill every pooled worker.
  sim::Simulator& sim = manager.simulator();
  const std::uint64_t outages_before = manager.fault_counters().host_outages;
  const sim::TimePoint deadline = sim.now() + sim::Duration::from_minutes(5);
  while (manager.fault_counters().host_outages == outages_before &&
         sim.now() < deadline && sim.pending() > 0) {
    sim.run_until(sim.now() + sim::Duration::from_seconds(1));
  }
  ASSERT_GT(manager.fault_counters().host_outages, outages_before);
  EXPECT_EQ(pooled_warm(), 0u);
  // The regression: dead workers' timers must be cancelled, not orphaned.
  EXPECT_EQ(engine.keep_alive_event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: fault rate x seeds.
// ---------------------------------------------------------------------------

class FaultSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(FaultSweepTest, ConservationAndLedgerHoldAcrossSeeds) {
  const double rate = GetParam();
  AuditGuard guard;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    ScenarioOptions scenario;
    scenario.seed = seed;
    // Mix every class, scaled so the bus rates stay a valid partition.
    scenario.faults.bus_drop_rate = rate * 0.3;
    scenario.faults.bus_duplicate_rate = rate * 0.2;
    scenario.faults.bus_delay_rate = rate * 0.5;
    scenario.faults.provision_failure_rate = rate * 0.4;
    scenario.faults.worker_crash_rate = rate * 0.4;
    scenario.faults.straggler_rate = rate;
    scenario.faults.host_outage_rate_per_hour = rate * 100.0;
    const ScenarioResult result = run_scenario(scenario);

    expect_conservation(result, scenario.requests);
    if (rate == 0.0) {
      EXPECT_DOUBLE_EQ(result.outcome.completion_rate(), 1.0);
      EXPECT_EQ(result.faults.total(), 0u);
    }
    // C_R quantities can only accrue, never run negative, faults or not.
    const cluster::ResourceLedger& delta = result.outcome.ledger_delta;
    EXPECT_GE(delta.provision_cpu_core_seconds, 0.0) << "seed " << seed;
    EXPECT_GE(delta.idle_cpu_core_seconds, 0.0) << "seed " << seed;
    EXPECT_GE(delta.idle_memory_mb_seconds, 0.0) << "seed " << seed;
    EXPECT_GE(delta.pre_use_idle_cpu_core_seconds, 0.0) << "seed " << seed;
    EXPECT_GE(delta.pre_use_memory_mb_seconds, 0.0) << "seed " << seed;
  }
  // No engine invariant may fire no matter how hostile the fault plan.
  EXPECT_EQ(sim::audit::log().total(), 0u) << sim::audit::log().summary();
}

INSTANTIATE_TEST_SUITE_P(rates, FaultSweepTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param == 0.0) return std::string{"r0"};
                           if (info.param == 0.01) return std::string{"r001"};
                           if (info.param == 0.1) return std::string{"r010"};
                           return std::string{"r050"};
                         });

TEST(fault_injection, DelayRateDegradesColdStartsMonotonically) {
  // Delay-only plans never strand anything, and FaultPlan spends exactly one
  // uniform draw per message: at a fixed seed the set of delayed messages at
  // a lower rate is a subset of the set at a higher rate.  Mean C_D over
  // sequential cold trials must therefore be non-decreasing in the rate.
  const double rates[] = {0.01, 0.1, 0.5};
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    double previous = -1.0;
    for (const double rate : rates) {
      DispatchManagerOptions options;
      options.kind = PlatformKind::XanaduCold;
      options.seed = seed;
      platform::PlatformCalibration calibration =
          platform::xanadu_calibration();
      calibration.control_bus.enabled = true;
      options.calibration = calibration;
      options.faults.bus_delay_rate = rate;
      options.faults.bus_extra_delay = sim::Duration::from_millis(250);
      DispatchManager manager{options};
      const auto wf = manager.deploy(scenario_dag(3));
      const workload::RunOutcome outcome =
          workload::run_cold_trials(manager, wf, 6);
      EXPECT_EQ(outcome.failed_count(), 0u);
      const double mean_cd = outcome.mean_overhead_ms();
      EXPECT_GE(mean_cd, previous - 1e-9)
          << "seed " << seed << " rate " << rate;
      previous = mean_cd;
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate semantics under failure (PR 3 regression guards).
// ---------------------------------------------------------------------------

TEST(fault_injection, FailedRequestsDoNotSkewPerRequestAggregates) {
  // Synthetic outcome: two completed requests with known stats plus two
  // failed ones.  The per-request aggregates must average over the two
  // completed requests only -- the pre-fix behaviour divided by four,
  // halving every value and making failure read as speedup.
  platform::RequestResult ok;
  ok.overhead = sim::Duration::from_millis(100);
  ok.end_to_end = sim::Duration::from_millis(250);
  ok.cold_starts = 4;
  ok.workers_provisioned = 3;
  ok.speculation.missed_nodes = 2;

  platform::RequestResult bad;
  bad.failed = true;
  // Failed requests do accrue cold starts and workers before stranding
  // (fail_request copies the partial counters); they still must not enter
  // the per-request means.
  bad.cold_starts = 9;
  bad.workers_provisioned = 9;
  bad.speculation.missed_nodes = 1;

  // Hand-built outcomes fold their results exactly as a run does.
  const workflow::WorkflowDag dag = scenario_dag(1);
  auto fold = [&dag](const std::vector<platform::RequestResult>& results) {
    metrics::StreamingTrace stream;
    stream.add_source(dag, "");
    for (const platform::RequestResult& r : results) stream.consume(0, r);
    workload::RunOutcome outcome;
    outcome.stats = stream.stats();
    outcome.histogram = stream.histogram();
    return outcome;
  };

  const workload::RunOutcome outcome = fold({ok, ok, bad, bad});
  EXPECT_EQ(outcome.completed_count(), 2u);
  EXPECT_DOUBLE_EQ(outcome.mean_overhead_ms(), 100.0);
  EXPECT_DOUBLE_EQ(outcome.mean_end_to_end_ms(), 250.0);
  EXPECT_DOUBLE_EQ(outcome.mean_cold_starts(), 4.0);
  EXPECT_DOUBLE_EQ(outcome.mean_workers_per_request(), 3.0);
  EXPECT_DOUBLE_EQ(outcome.fraction_over(sim::Duration::from_millis(50)),
                   1.0);
  EXPECT_DOUBLE_EQ(outcome.fraction_over(sim::Duration::from_millis(150)),
                   0.0);
  // Speculative waste is charged over ALL requests: a miss wastes real
  // provisioning work whether or not the request later failed.
  EXPECT_DOUBLE_EQ(outcome.mean_missed_nodes(), (2 + 2 + 1 + 1) / 4.0);

  // Degenerate all-failed outcome: defined zeros, never NaN.
  const workload::RunOutcome all_failed = fold({bad, bad});
  EXPECT_DOUBLE_EQ(all_failed.mean_overhead_ms(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.mean_end_to_end_ms(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.mean_cold_starts(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.mean_workers_per_request(), 0.0);
  EXPECT_DOUBLE_EQ(all_failed.fraction_over(sim::Duration::zero()), 0.0);
}

TEST(fault_injection, FaultedRunAggregatesAverageOverCompletedOnly) {
  // End to end: certain provisioning failure without recovery strands some
  // requests while others (fully warm path) complete.  The reported means
  // must match a by-hand average over the completed subset.
  ScenarioOptions scenario;
  // 0.3 per provision: with 3 cold provisions per request, a request
  // completes with probability ~0.34, so 6 requests almost surely produce
  // both a completed and a stranded subset (0.5 made completions a coin
  // flip and the test hostage to the exact draw sequence).
  scenario.faults.provision_failure_rate = 0.3;
  scenario.recovery = false;
  const ScenarioResult result = run_scenario(scenario);
  expect_conservation(result, scenario.requests);
  ASSERT_GT(result.outcome.failed_count(), 0u)
      << "scenario must strand at least one request to be discriminating";
  ASSERT_GT(result.outcome.completed_count(), 0u)
      << "scenario must complete at least one request to be discriminating";

  double overhead = 0.0;
  double cold = 0.0;
  double workers = 0.0;
  for (const auto& r : result.outcome.results) {
    if (r.failed) continue;
    overhead += r.overhead.millis();
    cold += static_cast<double>(r.cold_starts);
    workers += static_cast<double>(r.workers_provisioned);
  }
  const auto n = static_cast<double>(result.outcome.completed_count());
  EXPECT_DOUBLE_EQ(result.outcome.mean_overhead_ms(), overhead / n);
  EXPECT_DOUBLE_EQ(result.outcome.mean_cold_starts(), cold / n);
  EXPECT_DOUBLE_EQ(result.outcome.mean_workers_per_request(), workers / n);
}

TEST(fault_injection, StrandedRequestsFailAtExactlyTheStallHorizon) {
  // Total bus loss with recovery disabled strands every request; the run
  // harness must fail them AT the stall horizon, not up to a full 1 s
  // stride past it.  The horizon is deliberately not a whole number of
  // seconds so the pre-fix overshoot (run_until(now + 1 s) sailing past)
  // would be caught.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  options.seed = 42;
  platform::PlatformCalibration calibration = platform::xanadu_calibration();
  calibration.control_bus.enabled = true;
  options.calibration = calibration;
  options.faults.bus_drop_rate = 1.0;
  // A nonzero outage rate keeps a recurring host-outage event in the queue,
  // so the stall loop is bounded by the horizon rather than by the queue
  // draining -- exactly the case the clamped stride exists for.
  options.faults.host_outage_rate_per_hour = 0.5;
  options.recovery.enabled = false;
  DispatchManager manager{options};
  const auto wf = manager.deploy(scenario_dag(3));

  workload::RunOptions run;
  run.allow_incomplete = true;
  run.force_cold_each_request = true;
  run.stall_horizon = sim::Duration::from_millis(90'250);

  const workload::ArrivalSchedule schedule =
      workload::fixed_interval(4, sim::Duration::from_seconds(2));
  const sim::TimePoint base = manager.simulator().now();
  const sim::TimePoint horizon = base + schedule.back() + run.stall_horizon;

  const workload::RunOutcome outcome =
      workload::run_schedule(manager, wf, schedule, run);

  EXPECT_EQ(outcome.completed_count(), 0u);
  EXPECT_EQ(outcome.failed_count(), schedule.size());
  EXPECT_EQ(manager.simulator().now().micros(), horizon.micros())
      << "stall loop overshot (or undershot) the horizon";
  for (const auto& r : outcome.results) {
    ASSERT_TRUE(r.failed);
    EXPECT_EQ(r.completed.micros(), horizon.micros())
        << "stranded request failed past the horizon";
    EXPECT_NE(r.failure_reason.find("stranded"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Policy hook ordering under faults (policy-lab contract).
// ---------------------------------------------------------------------------

/// Flattens every policy hook into a string sequence so faulted replays can
/// be compared event for event.
struct HookRecorder final : platform::ProvisionPolicy {
  std::vector<std::string> events;
  std::size_t worker_ready = 0;

  void on_attach(platform::PlatformEngine&,
                 const platform::PolicyView&) override {
    events.push_back("attach");
  }
  void on_request_submitted(platform::PlatformEngine&,
                            platform::RequestContext&) override {
    events.push_back("submit");
  }
  void on_node_triggered(platform::PlatformEngine&, platform::RequestContext&,
                         common::NodeId node) override {
    events.push_back("trigger:" + std::to_string(node.value()));
  }
  void on_node_exec_start(platform::PlatformEngine&, platform::RequestContext&,
                          common::NodeId node) override {
    events.push_back("exec:" + std::to_string(node.value()));
  }
  void on_worker_ready(platform::PlatformEngine&, common::WorkflowId,
                       common::NodeId node, sim::Duration) override {
    ++worker_ready;
    events.push_back("ready:" + std::to_string(node.value()));
  }
  void on_node_completed(platform::PlatformEngine&, platform::RequestContext&,
                         common::NodeId node) override {
    events.push_back("done:" + std::to_string(node.value()));
  }
  void on_xor_resolved(platform::PlatformEngine&, platform::RequestContext&,
                       common::NodeId parent, common::NodeId chosen) override {
    events.push_back("xor:" + std::to_string(parent.value()) + "->" +
                     std::to_string(chosen.value()));
  }
  void on_node_skipped(platform::PlatformEngine&, platform::RequestContext&,
                       common::NodeId node) override {
    events.push_back("skip:" + std::to_string(node.value()));
  }
  void on_request_completed(platform::PlatformEngine&,
                            platform::RequestContext&,
                            platform::RequestResult&) override {
    events.push_back("complete");
  }
};

TEST(fault_injection, CrashedWhileProvisioningNeverFiresWorkerReady) {
  // on_worker_ready's contract: only builds that actually complete reach the
  // hook.  With every build failing, the recovery layer retries and then
  // fails the request over -- and the policy must see zero ready events.
  HookRecorder recorder;
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{3}};
  platform::PlatformCalibration calib = platform::xanadu_calibration();
  calib.faults.provision_failure_rate = 1.0;
  calib.recovery.enabled = true;
  platform::PlatformEngine engine{sim, cluster, calib, &recorder,
                                  common::Rng{42}};
  const auto wf = engine.register_workflow(scenario_dag(2));

  const platform::RequestResult result = engine.run_one(wf);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(recorder.worker_ready, 0u);
  EXPECT_GT(engine.fault_plan().counters().provision_failures, 0u);
  // The lifecycle hooks around the failure still fire in order.
  ASSERT_FALSE(recorder.events.empty());
  EXPECT_EQ(recorder.events.front(), "attach");
  EXPECT_EQ(recorder.events.back(), "complete");
}

TEST(fault_injection, HookSequencesAreIdenticalAcrossFaultedSeedReplays) {
  // The policy-lab determinism contract under chaos: same seed + same fault
  // plan => the policy observes the exact same hook sequence, including the
  // XOR resolutions and skips on the faulted path.
  auto run = [](std::uint64_t seed) {
    HookRecorder recorder;
    sim::Simulator sim;
    cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{3}};
    platform::PlatformCalibration calib = platform::xanadu_calibration();
    calib.faults.provision_failure_rate = 0.3;
    calib.faults.worker_crash_rate = 0.2;
    calib.recovery.enabled = true;
    platform::PlatformEngine engine{sim, cluster, calib, &recorder,
                                    common::Rng{seed}};

    workflow::WorkflowDag dag{"faulted-xor"};
    workflow::FunctionSpec spec;
    spec.exec_time = sim::Duration::from_millis(150);
    spec.name = "root";
    const auto root = dag.add_node(spec, workflow::DispatchMode::Xor);
    spec.name = "left";
    const auto left = dag.add_node(spec);
    spec.name = "right";
    const auto right = dag.add_node(spec);
    dag.add_edge(root, left, 0.5);
    dag.add_edge(root, right, 0.5);
    dag.validate();
    const auto wf = engine.register_workflow(std::move(dag));

    std::uint64_t faults = 0;
    for (int i = 0; i < 6; ++i) (void)engine.run_one(wf);
    faults = engine.fault_plan().counters().total();
    return std::make_pair(recorder.events, faults);
  };

  const auto [first, faults_first] = run(1234);
  const auto [replay, faults_replay] = run(1234);
  EXPECT_GT(faults_first, 0u) << "fault plan never fired; test is vacuous";
  EXPECT_EQ(faults_first, faults_replay);
  EXPECT_EQ(first, replay);

  // Each xor resolution is eventually followed by the matching skip, faulted
  // retries notwithstanding.
  std::size_t xors = 0;
  std::size_t skips = 0;
  for (const std::string& e : first) {
    if (e.rfind("xor:", 0) == 0) ++xors;
    if (e.rfind("skip:", 0) == 0) ++skips;
  }
  EXPECT_GT(xors, 0u);
  EXPECT_EQ(xors, skips);
}

}  // namespace
}  // namespace xanadu
