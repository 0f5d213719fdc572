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
#include <string>
#include <utility>
#include <vector>

#include "cluster/worker.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
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
/// bus enabled so the fleet view's per-tenant trackers consume worker
/// telemetry.
struct Scenario {
  std::vector<std::unique_ptr<DispatchManager>> managers;
  std::vector<workload::ShardedSource> shards;
};

Scenario make_scenario(std::uint64_t seed, bool faulted,
                       const std::vector<std::uint64_t>& tenants = {0, 1, 2}) {
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
  std::uint64_t fleet = 0;
  std::uint64_t fleet_events = 0;
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
  fp.fleet = outcome.fleet_digest;
  fp.fleet_events = outcome.fleet_events;
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
  EXPECT_EQ(a.fleet, b.fleet) << what;
  EXPECT_EQ(a.fleet_events, b.fleet_events) << what;
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
    ASSERT_GT(base.fleet_events, 0u)
        << "scenario must feed the fleet view real telemetry";
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

TEST(sharded_determinism, FleetViewSeesEveryTenant) {
  // One tracker per tenant, each on its own tenant's bus: every tenant that
  // provisions workers surfaces events, and the fleet total is the sum of
  // what each tenant's tracker sees when that tenant runs alone.
  const Fingerprint fp = run_fingerprint(42, false, 2);
  std::uint64_t alone_total = 0;
  for (const std::uint64_t tenant : {0ull, 1ull, 2ull}) {
    const Fingerprint alone = run_fingerprint(42, false, 1, {tenant});
    EXPECT_GT(alone.fleet_events, 0u) << "tenant " << tenant;
    alone_total += alone.fleet_events;
  }
  EXPECT_EQ(fp.fleet_events, alone_total);
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

Lane run_lane(std::uint64_t seed, bool faulted,
              const std::vector<std::uint64_t>& tenants, std::uint64_t tenant,
              unsigned threads) {
  Scenario scenario = make_scenario(seed, faulted, tenants);
  workload::RunOptions options;
  options.threads = threads;
  options.allow_incomplete = faulted;
  const workload::ShardedOutcome outcome =
      workload::run_sharded_mix(scenario.shards, options);
  std::size_t position = 0;
  while (tenants[position] != tenant) ++position;
  Lane lane;
  lane.trace = outcome.mixed.per_source[position].trace_digest;
  lane.engine_state = scenario.managers[position]->engine().state_digest();
  lane.ledger = outcome.mixed.per_source[position].ledger_delta;
  lane.failed = outcome.mixed.per_source[position].failed_count();
  return lane;
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
  // its last arrival plus stall_horizon -- not at a fleet-wide time, and
  // identically at any thread count.
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
    options.stall_horizon = 20_s;
    const workload::ShardedOutcome outcome =
        workload::run_sharded_mix(scenario.shards, options);

    std::vector<std::uint64_t> failure_times;
    for (std::size_t i = 0; i < scenario.shards.size(); ++i) {
      const workload::RunOutcome& lane = outcome.mixed.per_source[i];
      EXPECT_EQ(lane.failed_count(), scenario.shards[i].schedule.size());
      const sim::TimePoint horizon =
          sim::TimePoint{0} + scenario.shards[i].schedule.back() + 20_s;
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
  EXPECT_EQ(metrics::digest_hex(fault_free.fleet), "66058dbce18e7092");
  EXPECT_EQ(fault_free.fleet_events, 266u);
  const Fingerprint faulted = run_fingerprint(42, true, 4);
  EXPECT_EQ(metrics::digest_hex(faulted.aggregate_trace), "11c142469ab442e5");
}

}  // namespace
}  // namespace xanadu
