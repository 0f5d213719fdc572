// Streaming-vs-batch equivalence property suite.
//
// Every run folds each result through metrics::StreamingTrace as it
// completes, and every RunOutcome accessor reads the folded stats; retaining
// results only adds a sink that appends each folded result to the returned
// vectors.  The batch loops -- recompute every aggregate from the retained
// results -- live on here as the reference (BatchView).  This suite drives
// randomized workloads (sizes 1..10k, faults on and off, single-tenant and
// multi-tenant mixes) through both and demands EXACT equality, not
// approximation:
//
//   * the incremental trace digest equals metrics::trace_digest() over the
//     retained result vector (aggregate and every per-tenant lane),
//   * every RunOutcome aggregate accessor equals the batch recompute
//     bit-for-bit (the stats fold the same sums in the same order as the
//     batch loops), including the completed-denominator vs full-denominator
//     distinction on faulted runs,
//   * the retained vectors hold the results in submission order (request
//     ids strictly increase): the fold fills them itself, so the digest
//     check alone cannot see a wrong fold order,
//   * a retention-off replay (no sink) reproduces the retention-on run's
//     digest and aggregates exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/streaming.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"
#include "workload/traffic_mix.hpp"

namespace xanadu::workload {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;

DispatchManager make_manager(PlatformKind kind, std::uint64_t seed,
                             bool faults) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = seed;
  if (faults) {
    platform::PlatformCalibration calibration = platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    options.faults.provision_failure_rate = 0.2;
    options.faults.worker_crash_rate = 0.1;
    options.recovery.enabled = false;  // Strands become clean failures.
  }
  return DispatchManager{options};
}

/// The batch reference: RunOutcome's accessors recomputed from the retained
/// results by plain loops in submission order.
class BatchView {
 public:
  explicit BatchView(const std::vector<platform::RequestResult>& results)
      : results_(results) {}

  [[nodiscard]] std::size_t total_count() const { return results_.size(); }
  [[nodiscard]] std::size_t failed_count() const {
    std::size_t failed = 0;
    for (const auto& r : results_) {
      if (r.failed) ++failed;
    }
    return failed;
  }
  [[nodiscard]] std::size_t completed_count() const {
    return total_count() - failed_count();
  }
  [[nodiscard]] double completion_rate() const {
    if (results_.empty()) return 1.0;
    return static_cast<double>(completed_count()) /
           static_cast<double>(results_.size());
  }
  [[nodiscard]] double mean_overhead_ms() const {
    return completed_mean(
        [](const platform::RequestResult& r) { return r.overhead.millis(); });
  }
  [[nodiscard]] double mean_end_to_end_ms() const {
    return completed_mean(
        [](const platform::RequestResult& r) { return r.end_to_end.millis(); });
  }
  [[nodiscard]] double mean_cold_starts() const {
    return completed_mean([](const platform::RequestResult& r) {
      return static_cast<double>(r.cold_starts);
    });
  }
  [[nodiscard]] double mean_workers_per_request() const {
    return completed_mean([](const platform::RequestResult& r) {
      return static_cast<double>(r.workers_provisioned);
    });
  }
  /// Over all requests, failed included.
  [[nodiscard]] double mean_missed_nodes() const {
    if (results_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& r : results_) {
      total += static_cast<double>(r.speculation.missed_nodes);
    }
    return total / static_cast<double>(results_.size());
  }
  [[nodiscard]] double fraction_over(sim::Duration threshold) const {
    if (completed_count() == 0) return 0.0;
    std::size_t over = 0;
    for (const auto& r : results_) {
      if (!r.failed && r.overhead > threshold) ++over;
    }
    return static_cast<double>(over) / static_cast<double>(completed_count());
  }

 private:
  /// Sum of `value` over completed requests, divided by their count.
  template <typename Value>
  [[nodiscard]] double completed_mean(Value value) const {
    if (completed_count() == 0) return 0.0;
    double total = 0.0;
    for (const auto& r : results_) {
      if (!r.failed) total += value(r);
    }
    return total / static_cast<double>(completed_count());
  }

  const std::vector<platform::RequestResult>& results_;
};

/// Outcome accessors must equal the batch recompute EXACTLY (operator== on
/// doubles): the streaming consumer folds the same sums in the same order.
void expect_aggregates_match(const RunOutcome& streamed,
                             sim::Duration threshold) {
  // Every folded result reached the retention sink.
  ASSERT_EQ(streamed.results.size(), streamed.total_count());
  const BatchView batch{streamed.results};
  EXPECT_EQ(streamed.total_count(), batch.total_count());
  EXPECT_EQ(streamed.failed_count(), batch.failed_count());
  EXPECT_EQ(streamed.completed_count(), batch.completed_count());
  EXPECT_EQ(streamed.completion_rate(), batch.completion_rate());
  EXPECT_EQ(streamed.mean_overhead_ms(), batch.mean_overhead_ms());
  EXPECT_EQ(streamed.mean_end_to_end_ms(), batch.mean_end_to_end_ms());
  EXPECT_EQ(streamed.mean_cold_starts(), batch.mean_cold_starts());
  EXPECT_EQ(streamed.mean_workers_per_request(),
            batch.mean_workers_per_request());
  EXPECT_EQ(streamed.mean_missed_nodes(), batch.mean_missed_nodes());
  // Exact at the run's threshold; the batch count must agree.
  EXPECT_EQ(streamed.fraction_over(threshold), batch.fraction_over(threshold));
}

void expect_digest_matches(const RunOutcome& streamed,
                           const workflow::WorkflowDag& dag) {
  EXPECT_EQ(streamed.trace_digest,
            metrics::trace_digest(streamed.results, dag));
}

/// Request ids are assigned at submission, so results retained in
/// submission order have strictly increasing ids.  The fold fills the
/// retained vectors itself, so a wrong fold order would leave the digest
/// check above satisfied; this check catches it.
void expect_submission_order(const RunOutcome& outcome) {
  for (std::size_t i = 1; i < outcome.results.size(); ++i) {
    ASSERT_LT(outcome.results[i - 1].id.value(), outcome.results[i].id.value())
        << "at retained result " << i;
  }
}

/// The full-denominator distinction: mean_missed_nodes divides by all
/// triggered requests, the per-request means by completed only.  On a run
/// with failures the two denominators must actually differ.
void expect_denominator_distinction(const RunOutcome& outcome) {
  ASSERT_GT(outcome.failed_count(), 0u);
  EXPECT_LT(outcome.completed_count(), outcome.total_count());
  EXPECT_EQ(outcome.stats.completed(), outcome.completed_count());
  EXPECT_EQ(outcome.stats.total,
            static_cast<std::uint64_t>(outcome.total_count()));
}

// ---------------------------------------------------------------------------
// Single-tenant randomized sweep.
// ---------------------------------------------------------------------------

TEST(StreamingEquivalence, RandomizedSingleTenantRuns) {
  common::Rng meta{0x57ea111ULL};
  const PlatformKind kinds[] = {PlatformKind::KnativeLike,
                                PlatformKind::XanaduJit,
                                PlatformKind::XanaduSpeculative};
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const std::size_t requests = 1 + meta.uniform_int(400);
    const std::uint64_t seed = meta.next();
    const PlatformKind kind = kinds[meta.uniform_int(3)];
    const bool faults = meta.bernoulli(0.5);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(requests) + " requests, faults " +
                 std::to_string(faults));

    const workflow::WorkflowDag dag =
        workflow::linear_chain(3, workflow::BuildOptions{});
    RunOptions run;
    run.allow_incomplete = faults;
    run.drain_after_last = faults;
    const ArrivalSchedule schedule =
        fixed_interval(requests, sim::Duration::from_millis(250));

    auto manager = make_manager(kind, seed, faults);
    const auto wf = manager.deploy(workflow::linear_chain(3, workflow::BuildOptions{}));
    const RunOutcome retained = run_schedule(manager, wf, schedule, run);

    ASSERT_EQ(retained.results.size(), requests);
    expect_submission_order(retained);
    expect_digest_matches(retained, dag);
    expect_aggregates_match(retained, retained.stats.threshold);

    // Retention-off replay of the same seed: identical digest and
    // aggregates with zero retained results.
    auto replay_manager = make_manager(kind, seed, faults);
    const auto replay_wf =
        replay_manager.deploy(workflow::linear_chain(3, workflow::BuildOptions{}));
    RunOptions slim = run;
    slim.retain_results = false;
    const RunOutcome slimmed =
        run_schedule(replay_manager, replay_wf, schedule, slim);
    EXPECT_TRUE(slimmed.results.empty());
    EXPECT_EQ(slimmed.trace_digest, retained.trace_digest);
    EXPECT_EQ(slimmed.total_count(), retained.total_count());
    EXPECT_EQ(slimmed.failed_count(), retained.failed_count());
    EXPECT_EQ(slimmed.mean_overhead_ms(), retained.mean_overhead_ms());
    EXPECT_EQ(slimmed.mean_end_to_end_ms(), retained.mean_end_to_end_ms());
    EXPECT_EQ(slimmed.mean_cold_starts(), retained.mean_cold_starts());
    EXPECT_EQ(slimmed.mean_workers_per_request(),
              retained.mean_workers_per_request());
    EXPECT_EQ(slimmed.mean_missed_nodes(), retained.mean_missed_nodes());
    EXPECT_EQ(slimmed.fraction_over(slimmed.stats.threshold),
              retained.fraction_over(retained.stats.threshold));
  }
}

TEST(StreamingEquivalence, TenThousandRequestRun) {
  const workflow::WorkflowDag dag =
      workflow::linear_chain(2, workflow::BuildOptions{});
  auto manager = make_manager(PlatformKind::XanaduJit, 42, /*faults=*/false);
  const auto wf =
      manager.deploy(workflow::linear_chain(2, workflow::BuildOptions{}));
  const RunOutcome outcome = run_schedule(
      manager, wf, fixed_interval(10'000, sim::Duration::from_millis(20)));
  ASSERT_EQ(outcome.results.size(), 10'000u);
  expect_submission_order(outcome);
  expect_digest_matches(outcome, dag);
  expect_aggregates_match(outcome, outcome.stats.threshold);
  EXPECT_GT(outcome.histogram.count(), 0u);
}

TEST(StreamingEquivalence, FaultedRunKeepsDenominatorsDistinct) {
  // Forced failures: recovery off + provisioning faults.  The streamed
  // stats must track both denominators (all-triggered vs completed-only).
  const workflow::WorkflowDag dag =
      workflow::linear_chain(3, workflow::BuildOptions{});
  auto manager = make_manager(PlatformKind::XanaduJit, 1337, /*faults=*/true);
  const auto wf =
      manager.deploy(workflow::linear_chain(3, workflow::BuildOptions{}));
  RunOptions run;
  run.allow_incomplete = true;
  run.drain_after_last = true;
  run.force_cold_each_request = true;  // Every request provisions => faults.
  const RunOutcome outcome = run_schedule(
      manager, wf, fixed_interval(40, sim::Duration::from_seconds(2)), run);
  expect_submission_order(outcome);
  expect_digest_matches(outcome, dag);
  expect_aggregates_match(outcome, outcome.stats.threshold);
  expect_denominator_distinction(outcome);
}

// ---------------------------------------------------------------------------
// Multi-tenant mixes: per-source lanes must match per-source batch digests
// and aggregates.
// ---------------------------------------------------------------------------

TEST(StreamingEquivalence, RandomizedMultiTenantMixes) {
  common::Rng meta{0x3a1bf00dULL};
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const std::uint64_t seed = meta.next();
    const bool faults = trial % 2 == 1;
    SCOPED_TRACE("trial " + std::to_string(trial));

    std::vector<workflow::WorkflowDag> dags;
    dags.push_back(workflow::linear_chain(2, workflow::BuildOptions{}));
    dags.push_back(workflow::linear_chain(4, workflow::BuildOptions{}));
    dags.push_back(workflow::linear_chain(3, workflow::BuildOptions{}));

    auto manager = make_manager(PlatformKind::XanaduJit, seed, faults);
    std::vector<common::WorkflowId> ids;
    for (const auto& dag : dags) {
      workflow::WorkflowDag copy = dag;
      ids.push_back(manager.deploy(std::move(copy)));
    }
    common::Rng arrivals{seed ^ 0xabcdULL};
    const TrafficMix mix = poisson_mix(
        {{ids[0], "alpha", 2.0}, {ids[1], "beta", 1.0}, {ids[2], "gamma", 3.0}},
        sim::Duration::from_millis(150), sim::Duration::from_seconds(20),
        arrivals);
    RunOptions run;
    run.allow_incomplete = faults;
    run.drain_after_last = faults;
    const MixedOutcome outcome = run_mixed_schedule(manager, mix, run);

    expect_submission_order(outcome.aggregate);
    expect_aggregates_match(outcome.aggregate,
                            outcome.aggregate.stats.threshold);
    std::uint64_t per_source_total = 0;
    for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
      SCOPED_TRACE("source " + outcome.source_names[s]);
      const RunOutcome& src = outcome.per_source[s];
      expect_submission_order(src);
      expect_digest_matches(src, dags[s]);
      expect_aggregates_match(src, src.stats.threshold);
      per_source_total += src.total_count();
    }
    EXPECT_EQ(per_source_total, outcome.aggregate.total_count());

    // Retention-off replay: per-tenant digests and splits must reproduce.
    auto replay_manager = make_manager(PlatformKind::XanaduJit, seed, faults);
    std::vector<common::WorkflowId> replay_ids;
    for (const auto& dag : dags) {
      workflow::WorkflowDag copy = dag;
      replay_ids.push_back(replay_manager.deploy(std::move(copy)));
    }
    common::Rng replay_arrivals{seed ^ 0xabcdULL};
    const TrafficMix replay_mix =
        poisson_mix({{replay_ids[0], "alpha", 2.0},
                     {replay_ids[1], "beta", 1.0},
                     {replay_ids[2], "gamma", 3.0}},
                    sim::Duration::from_millis(150),
                    sim::Duration::from_seconds(20), replay_arrivals);
    RunOptions slim = run;
    slim.retain_results = false;
    const MixedOutcome slimmed =
        run_mixed_schedule(replay_manager, replay_mix, slim);
    EXPECT_TRUE(slimmed.aggregate.results.empty());
    EXPECT_EQ(slimmed.aggregate.trace_digest, outcome.aggregate.trace_digest);
    ASSERT_EQ(slimmed.per_source.size(), outcome.per_source.size());
    for (std::size_t s = 0; s < slimmed.per_source.size(); ++s) {
      SCOPED_TRACE("source " + slimmed.source_names[s]);
      const RunOutcome& a = slimmed.per_source[s];
      const RunOutcome& b = outcome.per_source[s];
      EXPECT_TRUE(a.results.empty());
      EXPECT_EQ(a.trace_digest, b.trace_digest);
      EXPECT_EQ(a.total_count(), b.total_count());
      EXPECT_EQ(a.failed_count(), b.failed_count());
      EXPECT_EQ(a.mean_overhead_ms(), b.mean_overhead_ms());
      EXPECT_EQ(a.mean_end_to_end_ms(), b.mean_end_to_end_ms());
      EXPECT_EQ(a.mean_cold_starts(), b.mean_cold_starts());
      EXPECT_EQ(a.mean_missed_nodes(), b.mean_missed_nodes());
    }
  }
}

TEST(StreamingEquivalence, OneSourceMixLaneHoldsTheAggregateResults) {
  // run_schedule returns only the aggregate, so its lone lane retains
  // nothing; run_mixed_schedule keeps every lane, even with one source, and
  // that lane must hold exactly the aggregate's results.  The arrivals
  // overlap cold starts, so completions come back out of order and the
  // reorder window does work.
  const workflow::WorkflowDag dag =
      workflow::linear_chain(3, workflow::BuildOptions{});
  auto manager = make_manager(PlatformKind::XanaduJit, 7, /*faults=*/false);
  const auto wf =
      manager.deploy(workflow::linear_chain(3, workflow::BuildOptions{}));
  common::Rng arrivals{7};
  TrafficMix mix;
  mix.add_source(wf, "solo",
                 poisson(sim::Duration::from_millis(100),
                         sim::Duration::from_seconds(30), arrivals));
  const MixedOutcome outcome = run_mixed_schedule(manager, mix);

  ASSERT_EQ(outcome.per_source.size(), 1u);
  const RunOutcome& lane = outcome.per_source.front();
  const RunOutcome& aggregate = outcome.aggregate;
  ASSERT_GT(aggregate.results.size(), 100u);
  expect_submission_order(aggregate);
  ASSERT_EQ(lane.results.size(), aggregate.results.size());
  for (std::size_t i = 0; i < lane.results.size(); ++i) {
    ASSERT_EQ(lane.results[i].id, aggregate.results[i].id) << "at " << i;
  }
  EXPECT_EQ(metrics::trace_csv(lane.results, dag),
            metrics::trace_csv(aggregate.results, dag));
  expect_digest_matches(lane, dag);
  expect_digest_matches(aggregate, dag);
  EXPECT_EQ(lane.trace_digest, aggregate.trace_digest);
}

// ---------------------------------------------------------------------------
// Streaming building blocks.
// ---------------------------------------------------------------------------

TEST(StreamingTraceTest, OwnsItsFunctionNamesAndLabel) {
  // add_source copies the dag's function names and the label, so both may
  // die before the first consume (under ASan a kept view would be a use
  // after free).  The label is longer than any small-string buffer, so its
  // characters live on the heap.
  const workflow::WorkflowDag dag =
      workflow::linear_chain(4, workflow::BuildOptions{});
  auto manager = make_manager(PlatformKind::XanaduJit, 11, /*faults=*/false);
  const auto wf = manager.deploy(dag);
  const RunOutcome outcome = run_cold_trials(manager, wf, 3);
  ASSERT_EQ(outcome.results.size(), 3u);

  const std::string expected_label = "a tenant label past the inline buffer";
  metrics::StreamingTrace trace;
  {
    const workflow::WorkflowDag doomed_dag = dag;
    const std::string doomed_label = expected_label;
    ASSERT_EQ(trace.add_source(doomed_dag, doomed_label), 0u);
  }
  for (const platform::RequestResult& result : outcome.results) {
    trace.consume(0, result);
  }
  EXPECT_EQ(trace.digest(), metrics::trace_digest(outcome.results, dag));
  EXPECT_EQ(trace.source_digest(0), trace.digest());
  EXPECT_EQ(trace.source_label(0), expected_label);
}

TEST(LatencyHistogramTest, QuantilesAndFractionAbove) {
  metrics::LatencyHistogram hist{/*bin_width_ms=*/1.0, /*bins=*/10};
  for (int i = 0; i < 90; ++i) hist.record(0.5);  // bin 0
  for (int i = 0; i < 9; ++i) hist.record(5.5);   // bin 5
  hist.record(123.0);                             // overflow
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_EQ(hist.quantile_ms(0.5), 1.0);    // upper edge of bin 0
  EXPECT_EQ(hist.quantile_ms(0.95), 6.0);   // upper edge of bin 5
  EXPECT_EQ(hist.quantile_ms(1.0), 123.0);  // overflow => exact max
  EXPECT_EQ(hist.fraction_above(1.0), 0.10);
  EXPECT_EQ(hist.fraction_above(50.0), 0.01);
}

TEST(LatencyHistogramTest, FractionAboveIsStrictAtExactBinEdges) {
  // Boundary-semantics pin (regression): record() puts a sample v into bin
  // floor(v / w), so a threshold sitting exactly on the bin edge k*w must
  // EXCLUDE bin k -- its samples can equal the threshold, and the exact
  // paths (RunStats::consume, RunOutcome::fraction_over) count only
  // overhead strictly greater than the threshold.  The pre-fix ceil()
  // included bin k, silently flipping the streamed estimate from ">" to
  // ">=" whenever the threshold was a bin-width multiple (the default
  // 100 ms threshold against 1 ms bins, for instance).
  metrics::LatencyHistogram hist{/*bin_width_ms=*/1.0, /*bins=*/10};
  for (int i = 0; i < 3; ++i) hist.record(2.0);  // bin 2, strictly below
  for (int i = 0; i < 4; ++i) hist.record(5.0);  // bin 5, EQUAL to threshold
  for (int i = 0; i < 3; ++i) hist.record(6.0);  // bin 6, strictly above

  // Exact reference: strict > over the raw samples.
  EXPECT_DOUBLE_EQ(hist.fraction_above(5.0), 0.3);
  // One bin lower the equal-to-threshold samples are above again.
  EXPECT_DOUBLE_EQ(hist.fraction_above(4.0), 0.7);
  // Edge cases: zero threshold excludes bin 0; negative thresholds count
  // everything; past-the-end thresholds count only overflow.
  metrics::LatencyHistogram zeros{1.0, 4};
  zeros.record(0.0);
  zeros.record(0.0);
  zeros.record(1.0);
  EXPECT_DOUBLE_EQ(zeros.fraction_above(0.0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(zeros.fraction_above(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(zeros.fraction_above(100.0), 0.0);

  // The streamed estimate now agrees with the exact strict-> counter for
  // bin-edge thresholds: RunStats counts overhead > threshold only.
  metrics::RunStats stats;
  stats.threshold = sim::Duration::from_millis(5);
  for (double v : {2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0, 6.0}) {
    platform::RequestResult result;
    result.overhead =
        sim::Duration::from_micros(static_cast<std::int64_t>(v * 1000));
    stats.consume(result);
  }
  EXPECT_DOUBLE_EQ(stats.fraction_over_threshold(), hist.fraction_above(5.0));
}

TEST(LatencyHistogramTest, FractionAbovePastTheMaximumIsZero) {
  // A threshold past the last bin edge used to count every overflow sample
  // as above it: with 512 x 1 ms bins and samples at 600 and 700 ms,
  // fraction_above(1000) read 1.0 although no sample exceeds 1000 ms.
  metrics::LatencyHistogram hist{/*bin_width_ms=*/1.0, /*bins=*/512};
  hist.record(600.0);
  hist.record(700.0);
  ASSERT_EQ(hist.overflow(), 2u);
  EXPECT_EQ(hist.fraction_above(1000.0), 0.0);
  // At the maximum itself nothing is strictly above.
  EXPECT_EQ(hist.fraction_above(700.0), 0.0);
  // Between the last bin edge and the maximum every overflow sample counts:
  // an upper bound (the exact fraction over 650 ms is 0.5).
  EXPECT_EQ(hist.fraction_above(650.0), 1.0);
  EXPECT_EQ(hist.fraction_above(100.0), 1.0);
}

/// A result with random sums, failed with probability 0.2.
platform::RequestResult random_result(common::Rng& rng) {
  platform::RequestResult result;
  result.failed = rng.bernoulli(0.2);
  result.overhead = sim::Duration::from_micros(
      static_cast<std::int64_t>(rng.uniform_int(400'000)));
  result.end_to_end = result.overhead + sim::Duration::from_micros(
      static_cast<std::int64_t>(rng.uniform_int(2'000'000)));
  result.cold_starts = rng.uniform_int(5);
  result.workers_provisioned = rng.uniform_int(7);
  result.speculation.missed_nodes = rng.uniform_int(3);
  return result;
}

TEST(RunStatsTest, MismatchedMergeLeavesTheTargetUnchanged) {
  common::Rng rng{99};
  metrics::RunStats other;
  for (int i = 0; i < 20; ++i) other.consume(random_result(rng));
  ASSERT_GT(other.completed(), 1u);

  metrics::RunStats empty;
  empty.threshold = sim::Duration::from_millis(50);
  EXPECT_THROW(empty.merge(other), std::invalid_argument);
  EXPECT_EQ(empty.threshold, sim::Duration::from_millis(50));
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(empty.failed, 0u);
  EXPECT_EQ(empty.over_threshold, 0u);
  EXPECT_EQ(empty.sum_overhead_ms, 0.0);
  EXPECT_EQ(empty.sum_end_to_end_ms, 0.0);
  EXPECT_EQ(empty.sum_cold_starts, 0.0);
  EXPECT_EQ(empty.sum_workers, 0.0);
  EXPECT_EQ(empty.sum_missed_nodes, 0.0);

  metrics::RunStats full;
  full.threshold = sim::Duration::from_millis(50);
  for (int i = 0; i < 5; ++i) full.consume(random_result(rng));
  const metrics::RunStats before = full;
  EXPECT_THROW(full.merge(other), std::invalid_argument);
  EXPECT_EQ(full.total, before.total);
  EXPECT_EQ(full.failed, before.failed);
  EXPECT_EQ(full.sum_overhead_ms, before.sum_overhead_ms);
}

TEST(RunStatsTest, LanesMergedInLaneOrderMatchOneFold) {
  // Lanes in the sharded runner's shape: per-lane folds merged in lane
  // order.  Lane 3 sees only failures (no completed sample) and lane 4
  // nothing.  Counts are exact; the sums are added in a different order
  // than the single fold, so they agree to a relative 1e-12.
  constexpr double kRelative = 1e-12;
  common::Rng rng{20261017};
  std::vector<metrics::RunStats> lanes(5);
  metrics::RunStats whole;
  for (int i = 0; i < 4000; ++i) {
    platform::RequestResult result = random_result(rng);
    std::size_t lane = rng.uniform_int(3);
    if (i % 50 == 0) {
      result.failed = true;
      lane = 3;
    }
    lanes[lane].consume(result);
    whole.consume(result);
  }
  ASSERT_EQ(lanes[3].completed(), 0u);
  ASSERT_GT(lanes[3].total, 0u);
  ASSERT_EQ(lanes[4].total, 0u);

  metrics::RunStats merged = lanes.front();
  for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
    merged.merge(lanes[lane]);
  }
  EXPECT_EQ(merged.total, whole.total);
  EXPECT_EQ(merged.failed, whole.failed);
  EXPECT_EQ(merged.over_threshold, whole.over_threshold);
  const auto near = [kRelative](double actual, double expected) {
    EXPECT_NEAR(actual, expected, kRelative * std::abs(expected));
  };
  near(merged.sum_overhead_ms, whole.sum_overhead_ms);
  near(merged.sum_end_to_end_ms, whole.sum_end_to_end_ms);
  near(merged.sum_cold_starts, whole.sum_cold_starts);
  near(merged.sum_workers, whole.sum_workers);
  near(merged.sum_missed_nodes, whole.sum_missed_nodes);
}

}  // namespace
}  // namespace xanadu::workload
