// Tests for the platform engine: DAG execution semantics (1:1, multicast,
// XOR cast, barrier), warm-pool reuse, keep-alive reclamation, prewarming,
// the OpenWhisk-style live-worker cap, C_D accounting, and the request
// context's recycling.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "platform/engine.hpp"
#include "sim/audit.hpp"
#include "sim/simulator.hpp"
#include "workflow/builders.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using workflow::BuildOptions;
using workflow::DispatchMode;
using workflow::SandboxKind;
using workflow::WorkflowDag;

/// Test fixture with a deterministic (jitter-free) calibration so latencies
/// are exactly computable.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { reset(exact_calibration()); }

  /// Jitter- and handoff-free calibration: every latency in a test is an
  /// exact arithmetic consequence of the profile constants.
  static PlatformCalibration exact_calibration() {
    PlatformCalibration calib;
    calib.overhead_jitter = sim::Duration::zero();
    calib.worker_handoff = sim::Duration::zero();
    return calib;
  }

  void reset(PlatformCalibration calib, ProvisionPolicy* policy = nullptr) {
    calib.overhead_jitter = sim::Duration::zero();
    calib_ = calib;
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<cluster::Cluster>(cluster::ClusterOptions{},
                                                  common::Rng{7});
    // Jitter-free container profile: 3000 ms cold, no concurrency penalty
    // unless a test opts in.
    auto profile = cluster::default_profile(SandboxKind::Container);
    profile.cold_start_jitter = sim::Duration::zero();
    profile.concurrency_penalty = 0.0;
    cluster_->catalog().set_profile(SandboxKind::Container, profile);
    engine_ = std::make_unique<PlatformEngine>(*sim_, *cluster_, calib_,
                                               policy, common::Rng{11});
  }

  BuildOptions exact_options(double exec_ms = 1000.0) {
    BuildOptions opts;
    opts.exec_time = sim::Duration::from_millis(exec_ms);
    opts.edge_delay = sim::Duration::zero();
    return opts;
  }

  PlatformCalibration calib_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<PlatformEngine> engine_;
};

TEST_F(EngineTest, SingleFunctionColdStartTiming) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  // dispatch (25 ms) + cold start (3000 ms) + exec (1000 ms).
  EXPECT_NEAR(result.end_to_end.millis(), 4025.0, 1.0);
  EXPECT_NEAR(result.critical_path_exec.millis(), 1000.0, 0.5);
  EXPECT_NEAR(result.overhead.millis(), 3025.0, 1.0);
  EXPECT_EQ(result.cold_starts, 1u);
  EXPECT_EQ(result.executed_nodes, 1u);
  EXPECT_EQ(result.workers_provisioned, 1u);
  ASSERT_EQ(result.node_records.size(), 1u);
  EXPECT_TRUE(result.node_records[0].cold);
}

TEST_F(EngineTest, WarmStartReusesWorker) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  (void)engine_->run_one(wf);
  const RequestResult warm = engine_->run_one(wf);
  // dispatch (25 ms) + exec only.
  EXPECT_NEAR(warm.overhead.millis(), 25.0, 1.0);
  EXPECT_EQ(warm.cold_starts, 0u);
  EXPECT_EQ(warm.workers_provisioned, 0u);
  EXPECT_FALSE(warm.node_records[0].cold);
}

TEST_F(EngineTest, LinearChainColdOverheadGrowsLinearly) {
  std::vector<double> overheads;
  for (const std::size_t len : {1u, 2u, 3u, 4u}) {
    reset(calib_);
    const auto wf = engine_->register_workflow(
        workflow::linear_chain(len, exact_options(500)));
    overheads.push_back(engine_->run_one(wf).overhead.millis());
  }
  // Each extra hop adds one full cold start + dispatch: ~3025 ms.
  for (std::size_t i = 1; i < overheads.size(); ++i) {
    EXPECT_NEAR(overheads[i] - overheads[i - 1], 3025.0, 5.0);
  }
}

TEST_F(EngineTest, KeepAliveReclaimsWorkers) {
  PlatformCalibration calib = exact_calibration();
  calib.keep_alive = sim::Duration::from_minutes(10);
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  (void)engine_->run_one(wf);
  EXPECT_EQ(cluster_->live_worker_count(), 1u);  // Still warm.
  // Idle past the keep-alive window: the worker is reclaimed.
  sim_->run_until(sim_->now() + sim::Duration::from_minutes(11));
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
  // Next request is cold again.
  const RequestResult again = engine_->run_one(wf);
  EXPECT_EQ(again.cold_starts, 1u);
}

TEST_F(EngineTest, SameTimeKeepAliveReclaimsKeepTheirOrder) {
  // Jitter-free lockstep.  A cold wave of two requests of workflow F and
  // one of G leaves F's pool with workers 0 and 2 (the second F request
  // waits on worker 0's build, then provisions its own) and G's with worker
  // 1.  A warm wave, all three submitted together, reuses every worker and
  // re-parks them in the same microsecond: 0 and 2 (F), then 1 (G).  The
  // three reclaims tie 60 s later and must fire in park order, 0, 2, 1,
  // although F's pool queues worker 2's reclaim only once worker 0's has
  // fired (a later sequence number would fire it after G's).  Each pool's
  // timer also fires once as a no-op, at the cold wave's key, first.
  PlatformCalibration calib = exact_calibration();
  calib.keep_alive = sim::Duration::from_seconds(60);
  reset(calib);
  const auto wf_f = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const auto wf_g = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  std::vector<std::pair<std::int64_t, std::uint64_t>> teardowns;
  cluster_->set_worker_observer(
      [&](const cluster::Worker& worker, cluster::WorkerTransition kind) {
        if (kind == cluster::WorkerTransition::Dead) {
          teardowns.emplace_back(sim_->now().micros(), worker.id().value());
        }
      });
  const auto wave = [&] {
    engine_->submit(wf_f, [](const RequestResult&) {});
    engine_->submit(wf_f, [](const RequestResult&) {});
    engine_->submit(wf_g, [](const RequestResult&) {});
  };
  wave();
  sim_->run_until(sim_->now() + 10_s);
  wave();
  sim_->run();
  cluster_->set_worker_observer({});

  // The warm wave dispatches at 10.025 s and finishes 1 s later.
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {71'025'000, 0}, {71'025'000, 2}, {71'025'000, 1}};
  EXPECT_EQ(teardowns, expected);
  EXPECT_EQ(engine_->keep_alive_event_count(), 0u);
}

TEST_F(EngineTest, RequestWithinKeepAliveIsWarm) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  RequestResult first;
  engine_->submit(wf, [&](const RequestResult& r) { first = r; });
  // Run just past request completion, well within keep-alive.
  sim_->run_until(sim_->now() + 10_s);
  EXPECT_EQ(cluster_->live_worker_count(), 1u);
  RequestResult second;
  engine_->submit(wf, [&](const RequestResult& r) { second = r; });
  sim_->run_until(sim_->now() + 10_s);
  EXPECT_EQ(second.cold_starts, 0u);
}

TEST_F(EngineTest, MulticastRunsAllChildrenInParallel) {
  const auto wf =
      engine_->register_workflow(workflow::fan_out(4, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  EXPECT_EQ(result.executed_nodes, 5u);
  EXPECT_EQ(result.skipped_nodes, 0u);
  // Children run in parallel: critical path is 2 functions deep.
  EXPECT_NEAR(result.critical_path_exec.millis(), 2000.0, 1.0);
  // End-to-end ~ 2 cold hops (children provision concurrently).
  EXPECT_LT(result.end_to_end.millis(), 2 * 3025.0 + 2000.0 + 100.0);
}

TEST_F(EngineTest, BarrierWaitsForSlowestParent) {
  // Two roots with different exec times joined by a sink.
  WorkflowDag dag{"barrier"};
  workflow::FunctionSpec fast;
  fast.name = "fast";
  fast.exec_time = 500_ms;
  workflow::FunctionSpec slow = fast;
  slow.name = "slow";
  slow.exec_time = 4000_ms;
  workflow::FunctionSpec sink = fast;
  sink.name = "sink";
  sink.exec_time = 100_ms;
  const auto a = dag.add_node(fast);
  const auto b = dag.add_node(slow);
  const auto c = dag.add_node(sink);
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const auto wf = engine_->register_workflow(std::move(dag));
  const RequestResult result = engine_->run_one(wf);
  ASSERT_EQ(result.executed_nodes, 3u);
  const NodeRecord& sink_record = result.node_records[c.value()];
  const NodeRecord& slow_record = result.node_records[b.value()];
  // The sink triggers exactly when the slow parent completes.
  EXPECT_EQ(sink_record.trigger_time, slow_record.exec_end);
  // Critical path goes through the slow branch.
  EXPECT_NEAR(result.critical_path_exec.millis(), 4100.0, 1.0);
  // Both parents invoked the sink (m:1 headers).
  EXPECT_EQ(sink_record.invoked_by.size(), 2u);
}

TEST_F(EngineTest, XorCastExecutesExactlyOneBranch) {
  workflow::XorCastOptions opts;
  opts.levels = 2;
  opts.fan = 3;
  opts.base = exact_options(500);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  const RequestResult result = engine_->run_one(wf);
  // Root + one child at each of 2 levels executed; the rest skipped.
  EXPECT_EQ(result.executed_nodes, 3u);
  EXPECT_EQ(result.skipped_nodes, 4u);
}

TEST_F(EngineTest, XorCastFollowsProbabilitiesStatistically) {
  workflow::XorCastOptions opts;
  opts.levels = 1;
  opts.fan = 2;
  opts.main_probability = 0.7;
  opts.favoured_index = 0;
  opts.base = exact_options(10);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  int favoured = 0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    engine_->flush_all_warm_workers();
    const RequestResult r = engine_->run_one(wf);
    if (r.node_records[1].status == NodeStatus::Completed) ++favoured;
  }
  EXPECT_NEAR(favoured / static_cast<double>(trials), 0.7, 0.07);
}

TEST_F(EngineTest, SkippedBranchesDoNotProvisionWorkers) {
  workflow::XorCastOptions opts;
  opts.levels = 3;
  opts.fan = 2;
  opts.base = exact_options(200);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  const RequestResult result = engine_->run_one(wf);
  // Only executed nodes provision workers (skipped XOR siblings never do).
  EXPECT_EQ(result.workers_provisioned, result.executed_nodes);
  EXPECT_GT(result.skipped_nodes, 0u);
}

TEST_F(EngineTest, PrewarmAllPolicyEliminatesChainedColdStarts) {
  PrewarmAllPolicy policy;
  reset(exact_calibration(), &policy);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(5, exact_options(5000)));
  const RequestResult result = engine_->run_one(wf);
  // First function still cold (its provision races the trigger), but all
  // later ones find ready workers: overhead ~ one cold start + dispatches.
  EXPECT_LT(result.overhead.millis(), 3500.0);
  EXPECT_EQ(result.workers_provisioned, 5u);
  // Every node after the first was warm by its trigger time.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(result.node_records[i].provision_wait, sim::Duration::zero());
  }
}

TEST_F(EngineTest, DispatchAttachesToInFlightProvision) {
  PrewarmAllPolicy policy;
  reset(exact_calibration(), &policy);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  // The prewarm fires at submit (t = 0); the dispatch arrives at t = 25 ms
  // while that provision is still in flight.  It must attach to it instead
  // of starting a second provision.
  const RequestResult result = engine_->run_one(wf);
  EXPECT_EQ(result.workers_provisioned, 1u);
  const NodeRecord& record = result.node_records[0];
  EXPECT_TRUE(record.cold);
  EXPECT_GT(record.provision_wait, sim::Duration::zero());
  // Execution starts when the prewarm (started at 0) is ready -- ~3000 ms --
  // not at dispatch + full cold start (~3025 ms).
  EXPECT_NEAR(record.exec_start.millis(), 3000.0, 1.0);
}

TEST_F(EngineTest, SecondWaiterRedispatchesWhenProvisionClaimed) {
  // Two requests race for the same single-function workflow: the second
  // attaches to the first's in-flight provision, loses it, and provisions
  // its own worker.
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  RequestResult first, second;
  engine_->submit(wf, [&](const RequestResult& r) { first = r; });
  sim_->schedule_after(1_s, [&] {
    engine_->submit(wf, [&](const RequestResult& r) { second = r; });
  });
  sim_->run_until(sim_->now() + 20_s);
  // First request: exec at ~3025 (dispatch 25 + provision 3000).
  EXPECT_NEAR(first.node_records[0].exec_start.millis(), 3025.0, 1.0);
  // Second request dispatched at ~1025, waited for the first provision
  // (claimed by request 1 at 3025), then provisioned its own worker:
  // exec at ~3025 + 3000.
  EXPECT_NEAR(second.node_records[0].exec_start.millis(), 6025.0, 2.0);
  EXPECT_EQ(second.workers_provisioned, 1u);
}

TEST_F(EngineTest, LiveWorkerCapEvictsAndPaysPenalty) {
  PlatformCalibration calib = exact_calibration();
  calib.max_live_workers = 2;
  calib.eviction_penalty = 700_ms;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(3, exact_options(500)));
  const RequestResult result = engine_->run_one(wf);
  // Third provision must evict the first node's (now warm) worker.
  EXPECT_LE(cluster_->live_worker_count(), 3u);
  const NodeRecord& third = result.node_records[2];
  // Its provisioning wait includes the eviction penalty.
  EXPECT_GT(third.provision_wait.millis(), 3000.0 + 650.0);
}

TEST_F(EngineTest, DiscardWarmWorkersDestroysIdleSandboxes) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  RequestResult r;
  engine_->submit(wf, [&](const RequestResult& result) { r = result; });
  sim_->run_until(sim_->now() + 10_s);
  const auto fn = engine_->function_id(wf, common::NodeId{0});
  EXPECT_EQ(engine_->warm_count(fn), 1u);
  EXPECT_EQ(engine_->shrink_warm_pool(fn, 0), 1u);
  EXPECT_EQ(engine_->warm_count(fn), 0u);
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
}

TEST_F(EngineTest, WorkerHandoffDelaysFirstUseAndChargesPreUseIdle) {
  PlatformCalibration calib = exact_calibration();
  calib.worker_handoff = 80_ms;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  // dispatch (25) + provision (3000) + handoff (80) + exec (1000).
  EXPECT_NEAR(result.end_to_end.millis(), 4105.0, 1.0);
  // The worker idled for the handoff interval before first use.
  const auto& ledger = cluster_->ledger();
  const double mem = 512.0 + cluster_->catalog()
                                 .profile(workflow::SandboxKind::Container)
                                 .memory_overhead_mb;
  EXPECT_NEAR(ledger.pre_use_memory_mb_seconds, mem * 0.08, mem * 0.001);
}

TEST_F(EngineTest, OverheadEquationMatchesDefinition) {
  // C_D = R_F - sum(r_i) for a linear chain (Equation 1).
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(3, exact_options(700)));
  const RequestResult result = engine_->run_one(wf);
  EXPECT_NEAR(result.critical_path_exec.millis(), 3 * 700.0, 1.0);
  EXPECT_NEAR(result.overhead.millis(),
              result.end_to_end.millis() - 2100.0, 0.5);
}

TEST_F(EngineTest, UnknownWorkflowRejected) {
  EXPECT_THROW(engine_->submit(common::WorkflowId{42}, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)engine_->dag(common::WorkflowId{42}), std::invalid_argument);
}

TEST_F(EngineTest, RunOneRejectsConcurrentRequests) {
  // run_one owns the whole request lifecycle: calling it while another
  // request is in flight would interleave the two and silently corrupt the
  // first request's timing.  The contract is an invariant, not a doc note.
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(2, exact_options()));
  engine_->submit(wf, [](const RequestResult&) {});
  EXPECT_THROW((void)engine_->run_one(wf), sim::audit::InvariantViolation);
  // The in-flight request is untouched by the rejected call.
  sim_->run();
  EXPECT_EQ(engine_->recovery_stats().requests_failed, 0u);
}

TEST_F(EngineTest, ExecJitterVariesRuntime) {
  BuildOptions opts = exact_options(1000);
  opts.exec_jitter = 100_ms;
  const auto wf = engine_->register_workflow(workflow::linear_chain(1, opts));
  double min_exec = 1e18, max_exec = 0;
  for (int i = 0; i < 20; ++i) {
    engine_->flush_all_warm_workers();
    const RequestResult r = engine_->run_one(wf);
    min_exec = std::min(min_exec, r.node_records[0].exec_duration.millis());
    max_exec = std::max(max_exec, r.node_records[0].exec_duration.millis());
  }
  EXPECT_LT(min_exec, max_exec);
  EXPECT_NEAR((min_exec + max_exec) / 2.0, 1000.0, 200.0);
}

TEST(RequestContext, ResetForReuseKeepsCapacityAndPolicyState) {
  struct PolicyMarks final : PolicyRequestState {
    std::vector<int> marks{1, 2, 3};
  };
  const WorkflowDag dag = workflow::linear_chain(3, BuildOptions{});
  RequestContext ctx;
  ctx.id = RequestId{5};
  ctx.workflow = WorkflowId{2};
  ctx.dag = &dag;
  ctx.submitted = sim::TimePoint{1234};
  ctx.nodes.resize(dag.node_count());
  ctx.outstanding = 3;
  ctx.cold_starts = 1;
  ctx.workers_provisioned = 2;
  ctx.speculation = SpeculationStats{1, 2, 3, 4, 5};
  ctx.on_complete = [](const RequestResult&) {};
  ctx.policy_state = std::make_unique<PolicyMarks>();
  const PolicyRequestState* state = ctx.policy_state.get();
  ctx.prewarms.resize(2);
  ctx.next_prewarm = 1;
  ctx.prewarm_event = EventId{9};
  const std::size_t node_capacity = ctx.nodes.capacity();
  const std::size_t prewarm_capacity = ctx.prewarms.capacity();

  ctx.reset_for_reuse();

  const RequestContext fresh;
  EXPECT_EQ(ctx.id, fresh.id);
  EXPECT_EQ(ctx.workflow, fresh.workflow);
  EXPECT_EQ(ctx.dag, fresh.dag);
  EXPECT_EQ(ctx.submitted, fresh.submitted);
  EXPECT_EQ(ctx.outstanding, fresh.outstanding);
  EXPECT_EQ(ctx.cold_starts, fresh.cold_starts);
  EXPECT_EQ(ctx.workers_provisioned, fresh.workers_provisioned);
  EXPECT_EQ(ctx.speculation.predicted_nodes, 0u);
  EXPECT_EQ(ctx.speculation.missed_nodes, 0u);
  EXPECT_EQ(ctx.speculation.unpredicted_executions, 0u);
  EXPECT_EQ(ctx.speculation.cancelled_deployments, 0u);
  EXPECT_EQ(ctx.speculation.wasted_workers, 0u);
  EXPECT_FALSE(ctx.on_complete);
  EXPECT_EQ(ctx.next_prewarm, fresh.next_prewarm);
  EXPECT_EQ(ctx.prewarm_event, fresh.prewarm_event);
  // Emptied, but the next request reuses their storage.
  EXPECT_TRUE(ctx.nodes.empty());
  EXPECT_EQ(ctx.nodes.capacity(), node_capacity);
  EXPECT_TRUE(ctx.prewarms.empty());
  EXPECT_EQ(ctx.prewarms.capacity(), prewarm_capacity);
  // The policy's state stays with the context: the policy resets it when
  // the context's next request is submitted.
  EXPECT_EQ(fresh.policy_state, nullptr);
  EXPECT_EQ(ctx.policy_state.get(), state);
}

}  // namespace
}  // namespace xanadu::platform
