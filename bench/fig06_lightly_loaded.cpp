// Figure 6: runtime-overhead profile of an emulated lightly-loaded function
// workflow.
//
// Protocol (Section 2.3): a depth-5 chain receiving ~2 requests/hour with
// gaps drawn from U(0, 60 min), run for ~16 hours.  A request counts as a
// cascading cold start when its overhead exceeds a platform threshold
// (1000 ms for ASF, 1500 ms for ADF).
//
// Paper claims reproduced here:
//   * ~78.1% of requests suffer cascading cold starts on ASF, ~62.5% on ADF,
//   * average overheads ~1800 ms (ASF) and ~1400 ms (ADF),
//   * the profile is stable over the experiment: the platforms apply no
//     learning optimisation.

#include "bench_util.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"

using namespace xanadu;

namespace {

/// Runs one platform and prints its profile; false when the printed cold
/// fraction is not exact (see bench::fraction_over_is_exact).
bool run(const char* name, core::PlatformKind kind, double threshold_ms) {
  auto manager = bench::make_manager(kind, /*seed=*/2020);
  const auto wf =
      manager.deploy(workflow::linear_chain(5, bench::chain_options(500)));
  common::Rng rng{2020};
  const auto schedule = workload::uniform_random(
      sim::Duration::zero(), sim::Duration::from_minutes(60),
      sim::Duration::from_minutes(16 * 60), rng);
  const sim::Duration threshold = sim::Duration::from_millis(threshold_ms);
  workload::RunOptions options;
  options.stream.over_threshold = threshold;  // fraction_over's exact point
  const auto outcome = workload::run_schedule(manager, wf, schedule, options);

  // Timeline: bucket by hour.
  metrics::Table timeline{{"hour", "requests", "cold requests", "mean C_D"}};
  for (int hour = 0; hour < 16; ++hour) {
    double sum = 0.0;
    int count = 0, cold = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const double h = schedule[i].seconds() / 3600.0;
      if (h < hour || h >= hour + 1) continue;
      ++count;
      sum += outcome.results[i].overhead.millis();
      if (outcome.results[i].overhead.millis() > threshold_ms) ++cold;
    }
    timeline.add_row({std::to_string(hour), std::to_string(count),
                      std::to_string(cold),
                      count ? metrics::fmt_ms(sum / count) : "-"});
  }
  timeline.print(std::string{name} + " hourly timeline (U(0,60min) arrivals, 16h)");

  const double cold_fraction = outcome.fraction_over(threshold);
  std::printf("  %zu requests total; %.1f%% over the %.0f ms warm threshold; "
              "mean overhead %.0f ms\n",
              outcome.results.size(), 100.0 * cold_fraction, threshold_ms,
              outcome.mean_overhead_ms());
  return bench::fraction_over_is_exact(outcome, threshold);
}

}  // namespace

int main() {
  bench::banner("Figure 6: lightly-loaded workflow cold-start concentration");
  const bool asf =
      run("AWS Step Functions (emulated)", core::PlatformKind::AsfLike, 1000.0);
  const bool adf = run("Azure Durable Functions (emulated)",
                       core::PlatformKind::AdfLike, 1500.0);
  bench::note("paper: 78.1% cold on ASF (avg 1800ms), 62.5% on ADF (avg 1400ms)");
  if (!asf || !adf) {
    std::fprintf(stderr, "fig06_lightly_loaded: self-check failed -- a "
                         "printed cold fraction differs from the count over "
                         "the retained results\n");
    return 1;
  }
  return 0;
}
