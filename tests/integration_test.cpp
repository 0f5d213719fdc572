// Cross-module integration tests: full platform comparisons reproducing the
// paper's headline claims in miniature (the bench binaries run the full
// versions).

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/dispatch_manager.hpp"
#include "workflow/builders.hpp"
#include "workflow/state_language.hpp"
#include "workload/case_studies.hpp"
#include "workload/runner.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;
using sim::Duration;
using workload::run_cold_trials;

DispatchManager make(PlatformKind kind, std::uint64_t seed = 42) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = seed;
  return DispatchManager{options};
}

workflow::BuildOptions five_second_chain() {
  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_seconds(5);
  return opts;
}

/// Mean cold overhead (ms) of `kind` on a linear chain of `length`.
double cold_overhead_ms(PlatformKind kind, std::size_t length,
                        std::size_t trials = 3) {
  auto manager = make(kind);
  const auto wf = manager.deploy(workflow::linear_chain(length, five_second_chain()));
  if (kind == PlatformKind::XanaduJit) {
    // JIT needs one profiling pass, like the paper's deployments.
    (void)run_cold_trials(manager, wf, 2);
  }
  return run_cold_trials(manager, wf, trials).mean_overhead_ms();
}

TEST(Integration, BaselinesGrowLinearlyXanaduSpeculativeStaysFlat) {
  // Figure 12a's shape: OpenWhisk / Knative / Xanadu Cold grow linearly
  // with chain length; Xanadu Speculative stays near-constant.
  const std::vector<double> lengths{1, 4, 8};
  std::vector<double> knative, cold, spec;
  for (const double len : lengths) {
    knative.push_back(
        cold_overhead_ms(PlatformKind::KnativeLike, static_cast<std::size_t>(len)));
    cold.push_back(
        cold_overhead_ms(PlatformKind::XanaduCold, static_cast<std::size_t>(len)));
    spec.push_back(cold_overhead_ms(PlatformKind::XanaduSpeculative,
                                    static_cast<std::size_t>(len)));
  }
  // Linear growth: len-8 overhead ~8x len-1 for the baselines.
  EXPECT_GT(knative[2] / knative[0], 6.0);
  EXPECT_GT(cold[2] / cold[0], 6.0);
  // Near-constant for speculative (paper: 1.11x increase at len 10).
  EXPECT_LT(spec[2] / spec[0], 1.8);
  // Knative is the slowest baseline.
  EXPECT_GT(knative[2], cold[2]);
}

TEST(Integration, SpeculativeBeatsBaselinesByALargeFactor) {
  const double knative = cold_overhead_ms(PlatformKind::KnativeLike, 8);
  const double openwhisk = cold_overhead_ms(PlatformKind::OpenWhiskLike, 8);
  const double spec = cold_overhead_ms(PlatformKind::XanaduSpeculative, 8);
  // The paper reports ~10-18x at length 10; demand at least 5x at length 8.
  EXPECT_GT(knative / spec, 5.0);
  EXPECT_GT(openwhisk / spec, 4.0);
}

TEST(Integration, JitMatchesSpeculativeLatencyAtFarLowerMemoryCost) {
  auto spec = make(PlatformKind::XanaduSpeculative);
  auto jit = make(PlatformKind::XanaduJit);
  const auto wf_spec = spec.deploy(workflow::linear_chain(10, five_second_chain()));
  const auto wf_jit = jit.deploy(workflow::linear_chain(10, five_second_chain()));
  (void)run_cold_trials(jit, wf_jit, 2);    // Profile warm-up.
  (void)run_cold_trials(spec, wf_spec, 2);  // Same treatment for fairness.

  const auto spec_outcome = run_cold_trials(spec, wf_spec, 5);
  const auto jit_outcome = run_cold_trials(jit, wf_jit, 5);

  // Latency within ~25% of each other (the paper gives JIT a ~10% edge).
  EXPECT_LT(jit_outcome.mean_overhead_ms(),
            spec_outcome.mean_overhead_ms() * 1.25);
  // Memory cost: speculative pays a large multiple of JIT's pre-use idle.
  EXPECT_GT(spec_outcome.ledger_delta.pre_use_memory_mb_seconds,
            10.0 * jit_outcome.ledger_delta.pre_use_memory_mb_seconds);
  // CPU cost: close (provisioning work dominates; idle burn is small).
  EXPECT_LT(jit_outcome.ledger_delta.idle_cpu_core_seconds,
            spec_outcome.ledger_delta.idle_cpu_core_seconds);
}

TEST(Integration, CloudPlatformsShowLinearColdGrowthWithHighR2) {
  // Figure 3's shape: both ASF-like and ADF-like grow linearly (R^2 > 0.9).
  for (const PlatformKind kind : {PlatformKind::AsfLike, PlatformKind::AdfLike}) {
    std::vector<double> x, y;
    workflow::BuildOptions opts;
    opts.exec_time = Duration::from_millis(500);
    for (std::size_t len = 1; len <= 5; ++len) {
      auto manager = make(kind);
      const auto wf = manager.deploy(workflow::linear_chain(len, opts));
      const auto outcome = run_cold_trials(manager, wf, 5);
      x.push_back(static_cast<double>(len));
      y.push_back(outcome.mean_overhead_ms());
    }
    const auto fit = common::linear_fit(x, y);
    EXPECT_GT(fit.r_squared, 0.9) << to_string(kind);
    EXPECT_GT(fit.slope, 0.0) << to_string(kind);
  }
}

TEST(Integration, CloudKeepAliveProducesWarmKnee) {
  // Figure 5's shape: requests arriving within the keep-alive window see
  // warm overheads; beyond it, cold overheads.
  auto manager = make(PlatformKind::AsfLike);
  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  const auto wf = manager.deploy(workflow::linear_chain(5, opts));
  (void)manager.invoke(wf);  // Warm the chain.

  // 5 minutes idle (inside ASF's ~10 min keep-alive): warm.
  manager.idle_for(Duration::from_minutes(5));
  const auto warm = manager.invoke(wf);
  EXPECT_EQ(warm.cold_starts, 0u);

  // 15 minutes idle (outside): cold again.
  manager.idle_for(Duration::from_minutes(15));
  const auto cold = manager.invoke(wf);
  EXPECT_EQ(cold.cold_starts, 5u);
  EXPECT_GT(cold.overhead.millis(), 3.0 * warm.overhead.millis());
}

TEST(Integration, AdfKeepAliveLongerThanAsf) {
  auto asf = make(PlatformKind::AsfLike);
  auto adf = make(PlatformKind::AdfLike);
  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  for (auto* manager : {&asf, &adf}) {
    const auto wf = manager->deploy(workflow::linear_chain(5, opts));
    (void)manager->invoke(wf);
    manager->idle_for(Duration::from_minutes(15));  // Between the two knees.
    const auto result = manager->invoke(wf);
    if (manager == &asf) {
      EXPECT_EQ(result.cold_starts, 5u);  // ASF reclaimed at ~10 min.
    } else {
      EXPECT_EQ(result.cold_starts, 0u);  // ADF keeps warm to ~20 min.
    }
  }
}

TEST(Integration, IsolationSandboxOrdering) {
  // Figure 7's shape: container chains cost ~2.5-3x process/isolate chains.
  auto overhead_for = [](workflow::SandboxKind kind) {
    auto manager = make(PlatformKind::XanaduCold);
    workflow::BuildOptions opts;
    opts.exec_time = Duration::from_millis(500);
    opts.sandbox = kind;
    const auto wf = manager.deploy(workflow::linear_chain(5, opts));
    return run_cold_trials(manager, wf, 3).mean_overhead_ms();
  };
  const double container = overhead_for(workflow::SandboxKind::Container);
  const double process = overhead_for(workflow::SandboxKind::Process);
  const double isolate = overhead_for(workflow::SandboxKind::Isolate);
  EXPECT_GT(container, process);
  EXPECT_GE(process, isolate);
  EXPECT_GT(container / process, 1.8);
  EXPECT_LT(container / isolate, 5.0);
}

TEST(Integration, ExplicitStateLanguageWorkflowRunsEndToEnd) {
  const std::string doc = R"({
    "f1": {"type": "function", "exec_ms": 400, "conditional": "c1"},
    "c1": {"type": "conditional", "wait_for": ["f1"],
           "success_probability": 0.8, "success": "b1", "fail": "b2"},
    "b1": {"type": "branch",
           "g1": {"type": "function", "exec_ms": 300},
           "g2": {"type": "function", "exec_ms": 200, "wait_for": ["g1"]}},
    "b2": {"type": "branch", "h1": {"type": "function", "exec_ms": 100}}
  })";
  auto parsed = workflow::parse_state_language(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto manager = make(PlatformKind::XanaduJit);
  const auto wf = manager.deploy(std::move(parsed).value());
  const auto result = manager.invoke(wf);
  EXPECT_GE(result.executed_nodes, 2u);
  EXPECT_EQ(result.executed_nodes + result.skipped_nodes, 4u);
}

TEST(Integration, CaseStudyXanaduBeatsBaselines) {
  // Figure 17's shape for the image pipeline: Xanadu JIT's overhead is a
  // small fraction of Knative's and below OpenWhisk's.
  auto run_pipeline = [](PlatformKind kind) {
    auto manager = make(kind);
    const auto wf = manager.deploy(workload::image_pipeline());
    if (kind == PlatformKind::XanaduJit) (void)run_cold_trials(manager, wf, 2);
    return run_cold_trials(manager, wf, 3).mean_overhead_ms();
  };
  const double knative = run_pipeline(PlatformKind::KnativeLike);
  const double openwhisk = run_pipeline(PlatformKind::OpenWhiskLike);
  const double jit = run_pipeline(PlatformKind::XanaduJit);
  EXPECT_GT(knative / jit, 3.0);
  EXPECT_GT(openwhisk / jit, 1.5);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto manager = make(PlatformKind::XanaduJit, 777);
    const auto wf =
        manager.deploy(workflow::linear_chain(5, five_second_chain()));
    const auto outcome = run_cold_trials(manager, wf, 3);
    return outcome.mean_overhead_ms();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xanadu
