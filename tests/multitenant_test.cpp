// Multi-tenant behaviour: several workflows deployed on one engine must stay
// isolated (disjoint FunctionId warm pools) while the engine-wide teardown
// operations (flush_all_warm_workers, fail_all_pending_requests) act across
// every tenant in deterministic id order.  Also covers the TrafficMix /
// run_mixed_schedule workload layer that interleaves their arrivals.

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "platform/engine.hpp"
#include "platform/worker_state.hpp"
#include "sim/simulator.hpp"
#include "workflow/builders.hpp"
#include "workload/traffic_mix.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using workflow::BuildOptions;

BuildOptions exact_options(double exec_ms = 500.0) {
  BuildOptions opts;
  opts.exec_time = sim::Duration::from_millis(exec_ms);
  opts.edge_delay = sim::Duration::zero();
  return opts;
}

class MultiTenantEngineTest : public ::testing::Test {
 protected:
  MultiTenantEngineTest() {
    auto profile = cluster::default_profile(workflow::SandboxKind::Container);
    profile.cold_start_jitter = sim::Duration::zero();
    profile.concurrency_penalty = 0.0;
    cluster_.catalog().set_profile(workflow::SandboxKind::Container, profile);
    calib_.overhead_jitter = sim::Duration::zero();
    calib_.worker_handoff = sim::Duration::zero();
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib_;
};

TEST_F(MultiTenantEngineTest, WorkflowsGetDisjointFunctionIdsAndWarmPools) {
  PlatformEngine engine{sim_, cluster_, calib_, nullptr, common::Rng{11}};
  const auto wf_a =
      engine.register_workflow(workflow::linear_chain(2, exact_options()));
  const auto wf_b =
      engine.register_workflow(workflow::linear_chain(3, exact_options()));

  std::vector<common::FunctionId> fns_a, fns_b;
  for (std::size_t n = 0; n < 2; ++n) {
    fns_a.push_back(engine.function_id(wf_a, common::NodeId{n}));
  }
  for (std::size_t n = 0; n < 3; ++n) {
    fns_b.push_back(engine.function_id(wf_b, common::NodeId{n}));
  }
  for (const auto fa : fns_a) {
    for (const auto fb : fns_b) EXPECT_NE(fa, fb);
  }

  // Warming one tenant leaves the other fully cold.
  (void)engine.run_one(wf_a);
  for (const auto fa : fns_a) EXPECT_EQ(engine.warm_count(fa), 1u);
  for (const auto fb : fns_b) EXPECT_EQ(engine.warm_count(fb), 0u);

  // The second tenant's run cannot reuse the first tenant's workers: every
  // node cold-starts even though compatible sandboxes sit idle next door.
  const RequestResult b = engine.run_one(wf_b);
  EXPECT_EQ(b.cold_starts, 3u);
  for (const auto fa : fns_a) EXPECT_EQ(engine.warm_count(fa), 1u);
  for (const auto fb : fns_b) EXPECT_EQ(engine.warm_count(fb), 1u);
}

TEST_F(MultiTenantEngineTest, FlushAllWarmWorkersActsAcrossTenantsInIdOrder) {
  calib_.control_bus.enabled = true;
  PlatformEngine engine{sim_, cluster_, calib_, nullptr, common::Rng{11}};
  const auto wf_a =
      engine.register_workflow(workflow::linear_chain(2, exact_options()));
  const auto wf_b =
      engine.register_workflow(workflow::linear_chain(2, exact_options()));

  std::vector<common::FunctionId> dead_functions;
  engine.control_bus()->subscribe(
      kWorkerStateTopic, [&](const BusMessage& message) {
        const auto& event = std::get<WorkerEvent>(message.payload);
        if (event.kind == WorkerEventKind::Dead) {
          dead_functions.push_back(event.function);
        }
      });

  (void)engine.run_one(wf_a);
  (void)engine.run_one(wf_b);
  engine.flush_all_warm_workers();
  sim_.run_until(sim_.now() + 1_s);  // Drain bus deliveries.

  // One Dead event per warm worker of *both* tenants, in ascending
  // FunctionId order (the teardown iterates a sorted key list, never raw
  // hash-map order).
  ASSERT_EQ(dead_functions.size(), 4u);
  for (std::size_t i = 1; i < dead_functions.size(); ++i) {
    EXPECT_LT(dead_functions[i - 1].value(), dead_functions[i].value());
  }
  for (const auto fn : dead_functions) {
    EXPECT_EQ(engine.warm_count(fn), 0u);
  }
}

TEST_F(MultiTenantEngineTest, FailAllPendingRequestsActsAcrossTenantsInIdOrder) {
  PlatformEngine engine{sim_, cluster_, calib_, nullptr, common::Rng{11}};
  const auto wf_a =
      engine.register_workflow(workflow::linear_chain(2, exact_options()));
  const auto wf_b =
      engine.register_workflow(workflow::linear_chain(2, exact_options()));

  std::vector<RequestResult> failures;
  auto record = [&](const RequestResult& r) { failures.push_back(r); };
  const auto id_a1 = engine.submit(wf_a, record);
  const auto id_b = engine.submit(wf_b, record);
  const auto id_a2 = engine.submit(wf_a, record);

  engine.fail_all_pending_requests("test teardown");

  // All three in-flight requests -- across both tenants -- fail exactly
  // once, in ascending RequestId order regardless of submission workflow.
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[0].id, id_a1);
  EXPECT_EQ(failures[1].id, id_b);
  EXPECT_EQ(failures[2].id, id_a2);
  for (const RequestResult& r : failures) {
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failure_reason, "test teardown");
  }
  EXPECT_EQ(engine.recovery_stats().requests_failed, 3u);
}

// ---------------------------------------------------- workload layer ------

TEST(TrafficMixTest, MergedOrderIsTotallyOrderedWithSourceTieBreak) {
  workload::TrafficMix mix;
  mix.add_source(common::WorkflowId{1}, "a", {10_ms, 20_ms});
  mix.add_source(common::WorkflowId{2}, "b", {10_ms, 15_ms});

  const auto merged = mix.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(mix.total_requests(), 4u);
  // Simultaneous arrivals (t = 10 ms) resolve in add_source order.
  EXPECT_EQ(merged[0].source, 0u);
  EXPECT_EQ(merged[1].source, 1u);
  EXPECT_EQ(merged[2].source, 1u);
  EXPECT_EQ(merged[3].source, 0u);
  EXPECT_EQ(merged[3].index, 1u);
}

TEST(TrafficMixTest, PoissonMixSplitsAggregateRateByWeight) {
  common::Rng rng{42};
  const auto mix = workload::poisson_mix(
      {{common::WorkflowId{1}, "light", 1.0},
       {common::WorkflowId{2}, "heavy", 4.0}},
      sim::Duration::from_millis(100), sim::Duration::from_minutes(30), rng);

  ASSERT_EQ(mix.sources().size(), 2u);
  const double light = static_cast<double>(mix.sources()[0].schedule.size());
  const double heavy = static_cast<double>(mix.sources()[1].schedule.size());
  // 30 min at 10 req/s aggregate: ~3600 light + ~14400 heavy.
  EXPECT_GT(light, 0.0);
  EXPECT_NEAR(heavy / light, 4.0, 0.5);

  common::Rng rng2{42};
  EXPECT_THROW(workload::poisson_mix({{common::WorkflowId{1}, "bad", 0.0}},
                                     sim::Duration::from_millis(100),
                                     sim::Duration::from_minutes(1), rng2),
               std::invalid_argument);
}

TEST(TrafficMixTest, RunMixedScheduleConservesRequestsPerWorkflow) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  core::DispatchManager manager{options};
  const auto wf_a = manager.deploy(workflow::linear_chain(2, exact_options()));
  const auto wf_b = manager.deploy(workflow::linear_chain(3, exact_options()));

  workload::TrafficMix mix;
  mix.add_source(wf_a, "a", workload::fixed_interval(5, 200_ms));
  mix.add_source(wf_b, "b", workload::fixed_interval(3, 300_ms));

  const auto outcome = workload::run_mixed_schedule(manager, mix);
  EXPECT_EQ(outcome.aggregate.results.size(), 8u);
  EXPECT_EQ(outcome.aggregate.failed_count(), 0u);
  ASSERT_EQ(outcome.per_source.size(), 2u);
  EXPECT_EQ(outcome.source_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(outcome.per_source[0].results.size(), 5u);
  EXPECT_EQ(outcome.per_source[1].results.size(), 3u);
  // Per-source slices carry the right tenant's results: node counts match
  // each workflow's shape, and every result routes back to its workflow id.
  for (const auto& r : outcome.per_source[0].results) {
    EXPECT_EQ(r.workflow, wf_a);
    EXPECT_EQ(r.executed_nodes, 2u);
  }
  for (const auto& r : outcome.per_source[1].results) {
    EXPECT_EQ(r.workflow, wf_b);
    EXPECT_EQ(r.executed_nodes, 3u);
  }
}

TEST(TrafficMixTest, RunMixedScheduleRejectsUnsortedSources) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  core::DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(1, exact_options()));

  workload::TrafficMix mix;
  mix.add_source(wf, "bad", {20_ms, 10_ms});
  EXPECT_THROW((void)workload::run_mixed_schedule(manager, mix),
               std::invalid_argument);
}

TEST(TrafficMixTest, SingleSourceMixMatchesRunSchedule) {
  // run_schedule delegates to run_mixed_schedule; the two entry points must
  // agree result-for-result on identical traffic.
  const auto schedule = workload::fixed_interval(4, 250_ms);

  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::KnativeLike;
  core::DispatchManager direct{options};
  const auto wf_direct =
      direct.deploy(workflow::linear_chain(2, exact_options()));
  const auto plain = workload::run_schedule(direct, wf_direct, schedule);

  core::DispatchManager mixed{options};
  const auto wf_mixed =
      mixed.deploy(workflow::linear_chain(2, exact_options()));
  workload::TrafficMix mix;
  mix.add_source(wf_mixed, "only", schedule);
  const auto via_mix = workload::run_mixed_schedule(mixed, mix);

  ASSERT_EQ(plain.results.size(), via_mix.aggregate.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_EQ(plain.results[i].end_to_end.micros(),
              via_mix.aggregate.results[i].end_to_end.micros());
    EXPECT_EQ(plain.results[i].cold_starts,
              via_mix.aggregate.results[i].cold_starts);
  }
}

}  // namespace
}  // namespace xanadu::platform
