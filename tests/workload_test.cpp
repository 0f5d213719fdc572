// Tests for workload generators (arrival processes, case studies) and the
// experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/case_studies.hpp"
#include "workload/runner.hpp"
#include "workload/traffic_mix.hpp"

namespace xanadu::workload {
namespace {

using sim::Duration;

// ------------------------------------------------------------- arrivals ---

TEST(Arrivals, FixedIntervalSpacing) {
  const auto schedule = fixed_interval(5, Duration::from_seconds(2));
  ASSERT_EQ(schedule.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(schedule[i], Duration::from_seconds(2.0 * static_cast<double>(i)));
  }
  EXPECT_THROW(fixed_interval(3, Duration::from_seconds(-1)),
               std::invalid_argument);
}

TEST(Arrivals, DecreasingProgressionMatchesPaperProtocol) {
  // 60 min gaps stepping by 10 down to 30, by 5 down to 10, by 1 down to 1.
  const auto schedule = decreasing_progression();
  ASSERT_GE(schedule.size(), 3u);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    gaps.push_back((schedule[i] - schedule[i - 1]).seconds() / 60.0);
  }
  // First gap is 60 min; gaps strictly decrease; final gap is 1 min.
  EXPECT_DOUBLE_EQ(gaps.front(), 60.0);
  EXPECT_DOUBLE_EQ(gaps.back(), 1.0);
  for (std::size_t i = 1; i < gaps.size(); ++i) EXPECT_LT(gaps[i], gaps[i - 1]);
  // The protocol's three step regimes all occur.
  bool has10 = false, has5 = false, has1 = false;
  for (std::size_t i = 1; i < gaps.size(); ++i) {
    const double step = gaps[i - 1] - gaps[i];
    if (step == 10.0) has10 = true;
    if (step == 5.0) has5 = true;
    if (step == 1.0) has1 = true;
  }
  EXPECT_TRUE(has10);
  EXPECT_TRUE(has5);
  EXPECT_TRUE(has1);
}

TEST(Arrivals, UniformRandomGapsWithinBounds) {
  common::Rng rng{3};
  const auto schedule = uniform_random(Duration::zero(),
                                       Duration::from_minutes(60),
                                       Duration::from_minutes(16 * 60), rng);
  // ~2 requests/hour over 16 h -> roughly 32 arrivals.
  EXPECT_GT(schedule.size(), 20u);
  EXPECT_LT(schedule.size(), 50u);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    const auto gap = schedule[i] - schedule[i - 1];
    EXPECT_GE(gap, Duration::zero());
    EXPECT_LT(gap, Duration::from_minutes(60));
  }
}

TEST(Arrivals, UniformRandomValidation) {
  common::Rng rng{3};
  EXPECT_THROW(uniform_random(Duration::from_seconds(5), Duration::zero(),
                              Duration::from_seconds(100), rng),
               std::invalid_argument);
}

TEST(Arrivals, PoissonMeanGap) {
  common::Rng rng{5};
  const auto schedule =
      poisson(Duration::from_seconds(10), Duration::from_seconds(20000), rng);
  // ~2000 arrivals expected.
  EXPECT_NEAR(static_cast<double>(schedule.size()), 2000.0, 200.0);
  EXPECT_THROW(poisson(Duration::zero(), Duration::from_seconds(1), rng),
               std::invalid_argument);
}

// --------------------------------------------------------- case studies ---

TEST(CaseStudies, EcommerceStagesMatchPaper) {
  const auto dag = ecommerce_checkout();
  ASSERT_EQ(dag.node_count(), 5u);
  EXPECT_EQ(dag.depth(), 5u);
  const std::vector<std::pair<std::string, double>> expected{
      {"order", 2000}, {"discount", 100}, {"payment", 2500},
      {"invoice", 300}, {"shipping", 500}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& node = dag.node(common::NodeId{i});
    EXPECT_EQ(node.fn.name, expected[i].first);
    EXPECT_NEAR(node.fn.exec_time.millis(), expected[i].second, 0.1);
  }
}

TEST(CaseStudies, ImagePipelineStagesMatchPaper) {
  const auto dag = image_pipeline();
  ASSERT_EQ(dag.node_count(), 5u);
  double total = 0.0;
  for (const auto& node : dag.nodes()) total += node.fn.exec_time.millis();
  // 400 + 350 + 600 + 500 + 300 = 2150 ms of raw execution.
  EXPECT_NEAR(total, 2150.0, 0.1);
}

// ----------------------------------------------------------------- runner -

TEST(Runner, ColdTrialsAreAllCold) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(500);
  const auto wf = manager.deploy(workflow::linear_chain(3, build));
  const RunOutcome outcome = run_cold_trials(manager, wf, 5);
  ASSERT_EQ(outcome.results.size(), 5u);
  for (const auto& r : outcome.results) {
    EXPECT_EQ(r.cold_starts, 3u);
  }
  EXPECT_EQ(outcome.ledger_delta.workers_provisioned, 15u);
  EXPECT_GT(outcome.mean_overhead_ms(), 3 * 3000.0);
}

TEST(Runner, ScheduleWithinKeepAliveReusesWorkers) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(200);
  const auto wf = manager.deploy(workflow::linear_chain(2, build));
  // 4 requests 30 s apart: within the 10 min keep-alive, only the first is
  // cold.
  const RunOutcome outcome = run_schedule(
      manager, wf, fixed_interval(4, Duration::from_seconds(30)));
  EXPECT_EQ(outcome.results[0].cold_starts, 2u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(outcome.results[i].cold_starts, 0u) << i;
  }
  EXPECT_EQ(outcome.ledger_delta.workers_provisioned, 2u);
}

TEST(Runner, StopsAtTheLastCompletion) {
  // Every run stops driving right after its last completion.  Without a
  // flush the clock rests exactly there, with the still-warm workers'
  // keep-alive timers queued, and the next run picks up from that clock.
  // Both unsharded runners stop the same way; drain_after_last drains on.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(230);
  const auto wf = manager.deploy(workflow::linear_chain(2, build));
  RunOptions run;
  run.flush_at_end = false;
  const auto last_completion = [](const std::vector<platform::RequestResult>&
                                      results) {
    sim::TimePoint last{};
    for (const platform::RequestResult& r : results) {
      last = std::max(last, r.completed);
    }
    return last;
  };

  const RunOutcome single = run_schedule(
      manager, wf, fixed_interval(3, Duration::from_millis(1'300)), run);
  ASSERT_EQ(single.completed_count(), 3u);
  EXPECT_EQ(manager.simulator().now(), last_completion(single.results));
  EXPECT_GT(manager.simulator().pending(), 0u);

  TrafficMix mix;
  mix.add_source(wf, "a", fixed_interval(2, Duration::from_millis(700)));
  mix.add_source(wf, "b", fixed_interval(2, Duration::from_millis(1'100)));
  const MixedOutcome mixed = run_mixed_schedule(manager, mix, run);
  ASSERT_EQ(mixed.aggregate.completed_count(), 4u);
  EXPECT_EQ(mixed.aggregate.results.front().submitted,
            last_completion(single.results));
  EXPECT_EQ(manager.simulator().now(),
            last_completion(mixed.aggregate.results));
  EXPECT_GT(manager.simulator().pending(), 0u);

  // drain_after_last drains on from the last completion: the keep-alive
  // timers fire and the queue empties.
  run.drain_after_last = true;
  const RunOutcome drained = run_schedule(
      manager, wf, fixed_interval(2, Duration::from_millis(500)), run);
  ASSERT_EQ(drained.completed_count(), 2u);
  EXPECT_GT(manager.simulator().now(), last_completion(drained.results));
  EXPECT_EQ(manager.simulator().pending(), 0u);
}

TEST(Runner, FractionOverThreshold) {
  platform::RequestResult fast;
  fast.overhead = Duration::from_millis(100);
  platform::RequestResult slow;
  slow.overhead = Duration::from_millis(5000);
  // A hand-built outcome folds its results, as a run does, against the
  // threshold it will be asked about.
  RunOutcome outcome;
  outcome.stats.threshold = Duration::from_millis(1000);
  for (const platform::RequestResult& r : {fast, slow, slow, slow}) {
    outcome.stats.consume(r);
  }
  EXPECT_DOUBLE_EQ(outcome.fraction_over(Duration::from_millis(1000)), 0.75);
}

TEST(Runner, AThrowingRunLeavesNoCallbackBehind) {
  // A 200 MB host runs out of memory partway through 50 overlapping
  // two-node requests, so a provision throws "cluster out of capacity"
  // mid-run.  The run's driver dies with the exception; none of its
  // arrivals or completion callbacks may survive it: the simulator drains
  // cleanly afterwards, and the same manager then runs a second schedule
  // (small functions, spaced past the keep-alive) to completion.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  options.cluster.memory_mb_per_host = 200;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(5);
  const auto wf = manager.deploy(workflow::linear_chain(2, build));
  build.memory_mb = 16;
  const auto small = manager.deploy(workflow::linear_chain(2, build));
  RunOptions run;
  run.retain_results = false;

  EXPECT_THROW((void)run_schedule(manager, wf,
                                  fixed_interval(50, Duration::from_millis(1)),
                                  run),
               std::runtime_error);
  EXPECT_EQ(manager.engine().inflight_request_count(), 0u);
  EXPECT_GT(manager.simulator().pending(), 0u);
  manager.simulator().run();
  EXPECT_EQ(manager.simulator().pending(), 0u);

  const RunOutcome second = run_schedule(
      manager, small, fixed_interval(3, Duration::from_minutes(11)), run);
  EXPECT_EQ(second.total_count(), 3u);
  EXPECT_EQ(second.failed_count(), 0u);
}

TEST(Runner, QueuedEventsScaleWithRequestsInFlight) {
  // The runner queues one timestamp's arrivals at a time, so a long
  // replay's event slab holds the requests in flight, not the whole
  // schedule.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::KnativeLike;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(5);
  const auto wf = manager.deploy(workflow::linear_chain(4, build));
  RunOptions run;
  run.retain_results = false;
  const RunOutcome outcome = run_schedule(
      manager, wf, fixed_interval(10'000, Duration::from_millis(20)), run);
  EXPECT_EQ(outcome.completed_count(), 10'000u);
  EXPECT_LT(manager.simulator().slab_capacity(), 1'000u);
}

TEST(Runner, JitPrewarmsLeaveWithTheirRequests) {
  // A JIT plan can schedule deployments past its request's end (a learned
  // cold response far above the warm one does that).  Completion cancels
  // them, so the slab holds the requests in flight and nothing is left
  // queued once the run ends.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  core::DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(5);
  build.edge_delay = Duration::from_millis(5);
  build.sandbox = workflow::SandboxKind::Container;
  const auto wf = manager.deploy(workflow::linear_chain(4, build));
  (void)run_cold_trials(manager, wf, 2);
  RunOptions run;
  run.retain_results = false;
  const RunOutcome outcome = run_schedule(
      manager, wf, fixed_interval(10'000, Duration::from_millis(20)), run);
  EXPECT_EQ(outcome.completed_count(), 10'000u);
  EXPECT_LT(manager.simulator().slab_capacity(), 1'000u);
  EXPECT_EQ(manager.simulator().pending(), 0u);

  // Those cancellations are not prediction misses.
  run.retain_results = true;
  const RunOutcome retained = run_schedule(
      manager, wf, fixed_interval(1'000, Duration::from_millis(20)), run);
  ASSERT_EQ(retained.results.size(), 1'000u);
  for (const platform::RequestResult& r : retained.results) {
    EXPECT_EQ(r.speculation.cancelled_deployments, 0u);
  }
  EXPECT_EQ(manager.simulator().pending(), 0u);
}

TEST(Runner, RejectsUnsortedSchedule) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  core::DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(1));
  ArrivalSchedule bad{Duration::from_seconds(5), Duration::from_seconds(1)};
  EXPECT_THROW(run_schedule(manager, wf, bad), std::invalid_argument);
}

TEST(Runner, RejectsAScheduleThatStartsBeforeTheRun) {
  // Offsets count from the run's start, so a negative first offset puts an
  // arrival in the past: refused before anything is queued or fired.
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduCold;
  core::DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(1));
  ArrivalSchedule bad{Duration::from_millis(-5), Duration::from_seconds(1)};
  EXPECT_THROW(run_schedule(manager, wf, bad), std::invalid_argument);
  EXPECT_EQ(manager.simulator().events_fired(), 0u);
  EXPECT_EQ(manager.simulator().pending(), 0u);
}

}  // namespace
}  // namespace xanadu::workload
