// Thread-count invariance of the sharded workload runner: running shards in
// parallel (workload::run_sharded_mix) must produce byte-identical traces,
// digests and stats at any thread count, fault-free and faulted, across
// seeds, and each tenant's lane must not depend on the other tenants in the
// run.  This is the workload-level acceptance pin for sharded runs; the
// sim-layer tests (sim::fork_join, the drain primitives) live in
// sharded_sim_test.cpp, and the unsharded golden digests stay pinned in
// determinism_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/worker.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
#include "platform/worker_state.hpp"
#include "sim/probe.hpp"
#include "sim/time.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/traffic_mix.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;
using namespace xanadu::sim::literals;

workflow::WorkflowDag conditional_dag() {
  workflow::XorCastOptions options;
  options.levels = 3;
  options.fan = 3;
  return workflow::xor_cast_dag(options);
}

/// A three-tenant deployment set: each tenant is a full DispatchManager
/// (its own simulator/cluster/engine) seeded from `seed`, with the control
/// bus enabled, so every provision is a daemon command on the tenant's own
/// bus.
struct Scenario {
  std::vector<std::unique_ptr<DispatchManager>> managers;
  std::vector<workload::ShardedSource> shards;
};

Scenario make_scenario(std::uint64_t seed, bool faulted,
                       const std::vector<std::uint64_t>& tenants = {0, 1, 2},
                       double bus_duplicate_rate = 0.0) {
  Scenario scenario;
  for (const std::uint64_t tenant : tenants) {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.seed = seed + 1000 * tenant;
    platform::PlatformCalibration calibration = platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    if (faulted) {
      // Mirrors determinism_test's FaultedRunSameSeedSameDigest rates.
      options.faults.bus_drop_rate = 0.1;
      options.faults.bus_delay_rate = 0.2;
      options.faults.provision_failure_rate = 0.2;
      options.faults.worker_crash_rate = 0.2;
      options.faults.bus_duplicate_rate = bus_duplicate_rate;
    }
    auto manager = std::make_unique<DispatchManager>(options);

    workload::ShardedSource source;
    source.manager = manager.get();
    source.workflow = manager->deploy(conditional_dag());
    source.name = "tenant-" + std::to_string(tenant);
    common::Rng arrivals_rng{seed * 7919 + tenant};
    source.schedule = workload::poisson(400_ms, 3_s, arrivals_rng);
    if (source.schedule.empty()) {
      source.schedule = workload::fixed_interval(4, 500_ms);
    }
    scenario.shards.push_back(std::move(source));
    scenario.managers.push_back(std::move(manager));
  }
  return scenario;
}

/// Everything a run exposes that could possibly vary with thread count.
struct Fingerprint {
  std::uint64_t aggregate_trace = 0;
  std::vector<std::uint64_t> per_shard_trace;
  std::uint64_t state = 0;
  std::size_t events_fired = 0;
  std::size_t total = 0;
  std::size_t failed = 0;
  double mean_overhead_ms = 0.0;
  double p99_ms = 0.0;
};

Fingerprint run_fingerprint(
    std::uint64_t seed, bool faulted, unsigned threads,
    const std::vector<std::uint64_t>& tenants = {0, 1, 2}) {
  Scenario scenario = make_scenario(seed, faulted, tenants);
  workload::RunOptions options;
  options.threads = threads;
  if (faulted) options.allow_incomplete = true;
  const workload::ShardedOutcome outcome =
      workload::run_sharded_mix(scenario.shards, options);

  Fingerprint fp;
  fp.aggregate_trace = outcome.mixed.aggregate.trace_digest;
  for (const workload::RunOutcome& lane : outcome.mixed.per_source) {
    fp.per_shard_trace.push_back(lane.trace_digest);
  }
  fp.state = outcome.state_digest;
  fp.events_fired = outcome.events_fired;
  fp.total = outcome.mixed.aggregate.total_count();
  fp.failed = outcome.mixed.aggregate.failed_count();
  fp.mean_overhead_ms = outcome.mixed.aggregate.mean_overhead_ms();
  fp.p99_ms = outcome.mixed.aggregate.histogram.quantile_ms(0.99);
  return fp;
}

void expect_same(const Fingerprint& a, const Fingerprint& b,
                 const std::string& what) {
  EXPECT_EQ(a.aggregate_trace, b.aggregate_trace) << what;
  EXPECT_EQ(a.per_shard_trace, b.per_shard_trace) << what;
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_EQ(a.events_fired, b.events_fired) << what;
  EXPECT_EQ(a.total, b.total) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.mean_overhead_ms, b.mean_overhead_ms) << what;  // Exact: same fold order.
  EXPECT_EQ(a.p99_ms, b.p99_ms) << what;
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the acceptance matrix (threads x seeds, fault-free
// and faulted).  threads == 1 is the sequential reference drain.
// ---------------------------------------------------------------------------

TEST(sharded_determinism, FaultFreeParallelMatchesSequential) {
  for (const std::uint64_t seed : {7ull, 21ull, 42ull}) {
    const Fingerprint base = run_fingerprint(seed, false, 1);
    ASSERT_GT(base.total, 0u);
    EXPECT_EQ(base.failed, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
      expect_same(base, run_fingerprint(seed, false, threads),
                  "seed " + std::to_string(seed) + " threads " +
                      std::to_string(threads));
    }
  }
}

TEST(sharded_determinism, FaultedParallelMatchesSequential) {
  for (const std::uint64_t seed : {7ull, 21ull, 42ull}) {
    const Fingerprint base = run_fingerprint(seed, true, 1);
    ASSERT_GT(base.total, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
      expect_same(base, run_fingerprint(seed, true, threads),
                  "faulted seed " + std::to_string(seed) + " threads " +
                      std::to_string(threads));
    }
  }
}

TEST(sharded_determinism, SameSeedSameRunDifferentSeedDifferentRun) {
  const Fingerprint a = run_fingerprint(42, false, 2);
  const Fingerprint b = run_fingerprint(42, false, 2);
  expect_same(a, b, "same seed replay");
  const Fingerprint c = run_fingerprint(43, false, 2);
  EXPECT_NE(a.aggregate_trace, c.aggregate_trace);
}

/// The value of the probe `name` in `manager`'s registry.
std::uint64_t probe(const DispatchManager& manager, const std::string& name) {
  for (const sim::ProbeSample& sample : manager.probes().sample()) {
    if (sample.first == name) return sample.second;
  }
  ADD_FAILURE() << "no probe named " << name;
  return 0;
}

TEST(sharded_determinism, TheRunnerSubscribesNothingToATenantBus) {
  // Fault-free, a tenant's only bus deliveries are its daemon commands, one
  // per provision started.  A subscriber the runner attached itself (a fleet
  // view nobody reads, say) would add deliveries on top.
  for (const std::uint64_t seed : {7ull, 21ull, 42ull}) {
    Scenario scenario = make_scenario(seed, false);
    workload::RunOptions options;
    options.threads = 2;
    (void)workload::run_sharded_mix(scenario.shards, options);
    for (std::size_t i = 0; i < scenario.managers.size(); ++i) {
      const DispatchManager& manager = *scenario.managers[i];
      const std::uint64_t provisions =
          probe(manager, "pipeline.provisions_started");
      EXPECT_GT(provisions, 0u) << "seed " << seed << " tenant " << i;
      EXPECT_EQ(probe(manager, "bus.delivered"), provisions)
          << "seed " << seed << " tenant " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-shard stop: a tenant's lane is a function of that tenant alone.  Each
// tenant halts right after its own last completion (or at its own stall
// horizon), so neither its neighbours nor the order shards were added in can
// move its final clock, its idle ledger or its engine state.
// ---------------------------------------------------------------------------

/// Tenant `tenant`'s lane of a run over `tenants` (in that add order).
struct Lane {
  std::uint64_t trace = 0;
  std::uint64_t engine_state = 0;
  cluster::ResourceLedger ledger;
  std::size_t failed = 0;
};

/// The lane of the shard at `position` once `scenario` has run.
Lane lane_at(const Scenario& scenario, const workload::ShardedOutcome& outcome,
             std::size_t position) {
  Lane lane;
  lane.trace = outcome.mixed.per_source[position].trace_digest;
  lane.engine_state = scenario.managers[position]->engine().state_digest();
  lane.ledger = outcome.mixed.per_source[position].ledger_delta;
  lane.failed = outcome.mixed.per_source[position].failed_count();
  return lane;
}

workload::ShardedOutcome run_scenario(Scenario& scenario, bool faulted,
                                      unsigned threads) {
  workload::RunOptions options;
  options.threads = threads;
  options.allow_incomplete = faulted;
  return workload::run_sharded_mix(scenario.shards, options);
}

Lane run_lane(std::uint64_t seed, bool faulted,
              const std::vector<std::uint64_t>& tenants, std::uint64_t tenant,
              unsigned threads) {
  Scenario scenario = make_scenario(seed, faulted, tenants);
  const workload::ShardedOutcome outcome =
      run_scenario(scenario, faulted, threads);
  std::size_t position = 0;
  while (tenants[position] != tenant) ++position;
  return lane_at(scenario, outcome, position);
}

void expect_same_lane(const Lane& a, const Lane& b, const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.engine_state, b.engine_state) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  // Exact: the same events fold the same doubles in the same order.
  EXPECT_EQ(a.ledger.provision_cpu_core_seconds,
            b.ledger.provision_cpu_core_seconds) << what;
  EXPECT_EQ(a.ledger.idle_cpu_core_seconds, b.ledger.idle_cpu_core_seconds)
      << what;
  EXPECT_EQ(a.ledger.idle_memory_mb_seconds, b.ledger.idle_memory_mb_seconds)
      << what;
  EXPECT_EQ(a.ledger.pre_use_idle_cpu_core_seconds,
            b.ledger.pre_use_idle_cpu_core_seconds) << what;
  EXPECT_EQ(a.ledger.pre_use_memory_mb_seconds,
            b.ledger.pre_use_memory_mb_seconds) << what;
  EXPECT_EQ(a.ledger.workers_provisioned, b.ledger.workers_provisioned)
      << what;
  EXPECT_EQ(a.ledger.workers_wasted, b.ledger.workers_wasted) << what;
  EXPECT_EQ(a.ledger.executions, b.ledger.executions) << what;
}

TEST(sharded_determinism, TenantLaneIsIndependentOfItsNeighbours) {
  for (const bool faulted : {false, true}) {
    const std::string mode = faulted ? "faulted" : "fault-free";
    const Lane alone = run_lane(42, faulted, {0}, 0, 1);
    expect_same_lane(alone, run_lane(42, faulted, {0, 1}, 0, 2),
                     mode + ": beside tenant 1");
    expect_same_lane(alone, run_lane(42, faulted, {0, 1, 2}, 0, 4),
                     mode + ": beside tenants 1 and 2");
    expect_same_lane(alone, run_lane(42, faulted, {2, 1, 0}, 0, 1),
                     mode + ": reversed add order");
    // Every tenant, not just the first, keeps its lane under reordering.
    for (const std::uint64_t tenant : {1ull, 2ull}) {
      expect_same_lane(run_lane(42, faulted, {tenant}, tenant, 1),
                       run_lane(42, faulted, {2, 1, 0}, tenant, 4),
                       mode + ": tenant " + std::to_string(tenant));
    }
  }
}

TEST(sharded_determinism, StrandedRequestsFailAtTheirOwnShardHorizon) {
  // Every command is dropped and recovery is off, so every request strands.
  // Each tenant's leftovers must fail at exactly its own stall horizon --
  // its last arrival plus the runner's 10 virtual minutes -- not at a
  // fleet-wide time, and identically at any thread count.
  const auto run = [](unsigned threads) {
    Scenario scenario;
    for (std::uint64_t tenant = 0; tenant < 3; ++tenant) {
      DispatchManagerOptions options;
      options.kind = PlatformKind::XanaduJit;
      options.seed = 42 + 1000 * tenant;
      platform::PlatformCalibration calibration =
          platform::xanadu_calibration();
      calibration.control_bus.enabled = true;
      options.calibration = calibration;
      options.faults.bus_drop_rate = 1.0;
      options.recovery.enabled = false;
      auto manager = std::make_unique<DispatchManager>(options);
      workload::ShardedSource source;
      source.manager = manager.get();
      source.workflow = manager->deploy(conditional_dag());
      source.name = "tenant-" + std::to_string(tenant);
      // Distinct schedule lengths give every tenant a different horizon.
      source.schedule = workload::fixed_interval(2 + tenant, 3_s);
      scenario.shards.push_back(std::move(source));
      scenario.managers.push_back(std::move(manager));
    }
    workload::RunOptions options;
    options.threads = threads;
    options.allow_incomplete = true;
    const workload::ShardedOutcome outcome =
        workload::run_sharded_mix(scenario.shards, options);

    std::vector<std::uint64_t> failure_times;
    for (std::size_t i = 0; i < scenario.shards.size(); ++i) {
      const workload::RunOutcome& lane = outcome.mixed.per_source[i];
      EXPECT_EQ(lane.failed_count(), scenario.shards[i].schedule.size());
      const sim::TimePoint horizon = sim::TimePoint{0} +
                                     scenario.shards[i].schedule.back() +
                                     sim::Duration::from_minutes(10);
      for (const platform::RequestResult& result : lane.results) {
        EXPECT_TRUE(result.failed);
        EXPECT_EQ(result.completed, horizon) << "tenant " << i;
        failure_times.push_back(
            static_cast<std::uint64_t>(result.completed.micros()));
      }
    }
    return std::make_pair(failure_times, outcome.mixed.aggregate.trace_digest);
  };
  const auto base = run(1);
  EXPECT_EQ(run(4), base);
}

TEST(sharded_determinism, AnEmptyScheduleRunsNoRequests) {
  // run_schedule with nothing to run returns a zero-request outcome and
  // leaves the clock where the previous run left it.
  {
    Scenario scenario = make_scenario(42, false, {0});
    DispatchManager& manager = *scenario.managers.front();
    const common::WorkflowId workflow = scenario.shards.front().workflow;
    (void)workload::run_schedule(manager, workflow,
                                 workload::fixed_interval(3, 500_ms));
    const sim::TimePoint clock = manager.simulator().now();
    const workload::RunOutcome empty =
        workload::run_schedule(manager, workflow, {});
    EXPECT_EQ(empty.total_count(), 0u);
    EXPECT_TRUE(empty.results.empty());
    EXPECT_EQ(empty.ledger_delta.workers_provisioned, 0u);
    EXPECT_EQ(manager.simulator().now(), clock);
  }
  // A sharded run: the empty shard's lane is empty, and every other lane is
  // its lane in the same run without that shard.
  for (const bool faulted : {false, true}) {
    const std::string mode = faulted ? "faulted" : "fault-free";
    Scenario with_empty = make_scenario(42, faulted, {0, 1, 2});
    with_empty.shards[1].schedule.clear();
    const workload::ShardedOutcome outcome =
        run_scenario(with_empty, faulted, 2);
    const workload::RunOutcome& empty = outcome.mixed.per_source[1];
    EXPECT_EQ(empty.total_count(), 0u) << mode;
    EXPECT_TRUE(empty.results.empty()) << mode;
    EXPECT_EQ(empty.ledger_delta.workers_provisioned, 0u) << mode;

    Scenario without = make_scenario(42, faulted, {0, 2});
    const workload::ShardedOutcome reference =
        run_scenario(without, faulted, 1);
    expect_same_lane(lane_at(with_empty, outcome, 0),
                     lane_at(without, reference, 0), mode + ": tenant 0");
    expect_same_lane(lane_at(with_empty, outcome, 2),
                     lane_at(without, reference, 1), mode + ": tenant 2");
  }
}

TEST(sharded_determinism, ABadScheduleIsRefusedBeforeAnyShardRuns) {
  // Shard 1's schedule is sorted but starts 5 ms before the run.  Every
  // schedule is checked before any shard runs, so the run throws with shard
  // 0's simulator untouched, at any thread count.
  for (const unsigned threads : {1u, 2u}) {
    Scenario scenario = make_scenario(42, false, {0, 1});
    scenario.shards[1].schedule.front() = sim::Duration::from_millis(-5);
    const sim::Simulator& first = scenario.managers[0]->simulator();
    const std::uint64_t fired = first.events_fired();
    const sim::TimePoint clock = first.now();
    workload::RunOptions options;
    options.threads = threads;
    EXPECT_THROW((void)workload::run_sharded_mix(scenario.shards, options),
                 std::invalid_argument)
        << threads << " threads";
    EXPECT_EQ(first.events_fired(), fired) << threads << " threads";
    EXPECT_EQ(first.now(), clock) << threads << " threads";
  }
}

TEST(sharded_determinism, AFleetViewOnEveryTenantBusMovesNoLane) {
  // Observers never change a run: a WorkerStateTracker on each tenant's bus
  // adds deliveries (twice for a duplicated message) and nothing else.  So
  // events_fired may differ; every lane may not.
  for (const unsigned threads : {1u, 4u}) {
    Scenario bare = make_scenario(42, true, {0, 1, 2}, 0.1);
    const workload::ShardedOutcome bare_outcome =
        run_scenario(bare, true, threads);
    Scenario watched = make_scenario(42, true, {0, 1, 2}, 0.1);
    std::vector<std::unique_ptr<platform::WorkerStateTracker>> trackers;
    for (const auto& manager : watched.managers) {
      trackers.push_back(std::make_unique<platform::WorkerStateTracker>(
          *manager->engine().control_bus()));
    }
    const workload::ShardedOutcome watched_outcome =
        run_scenario(watched, true, threads);
    for (std::size_t i = 0; i < watched.managers.size(); ++i) {
      const std::string what = "threads " + std::to_string(threads) +
                               " tenant " + std::to_string(i);
      expect_same_lane(lane_at(bare, bare_outcome, i),
                       lane_at(watched, watched_outcome, i), what);
      EXPECT_GT(trackers[i]->events_seen(), 0u) << what;
      const sim::FaultCounters& faults = watched.managers[i]->fault_counters();
      EXPECT_GT(faults.bus_drops, 0u) << what;
      EXPECT_GT(faults.bus_duplicates, 0u) << what;
      EXPECT_GT(faults.bus_delays, 0u) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden sharded digests.  Pinned like determinism_test's GoldenDigestGuard:
// if an intentional trace change lands, re-pin in the same commit and say
// why in the message.  Any thread count must reproduce these (the invariance
// tests above cover the rest of the matrix).
// ---------------------------------------------------------------------------

TEST(sharded_determinism, GoldenShardedDigestGuard) {
  const Fingerprint fault_free = run_fingerprint(42, false, 4);
  EXPECT_EQ(metrics::digest_hex(fault_free.aggregate_trace),
            "51686ecbc533f0f6");
  EXPECT_EQ(metrics::digest_hex(fault_free.state), "7a4143bf74188693");
  EXPECT_EQ(fault_free.events_fired, 351u);
  const Fingerprint faulted = run_fingerprint(42, true, 4);
  EXPECT_EQ(metrics::digest_hex(faulted.aggregate_trace), "11c142469ab442e5");
}

}  // namespace
}  // namespace xanadu
