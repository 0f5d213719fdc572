// Ablation: worker keep-alive duration (Section 7 future work: "Reducing
// Function keep-alive time ... from tens of minutes to a few seconds,
// enabling more significant resource savings").
//
// With speculation eliminating most cold starts, a short keep-alive should
// cost little latency while slashing idle-resource burn.  Without
// speculation, short keep-alives are catastrophic for sparse workloads.

#include <map>

#include "bench_util.hpp"
#include "metrics/cost.hpp"
#include "workload/arrivals.hpp"

using namespace xanadu;

int main() {
  bench::banner("Ablation: keep-alive duration x speculation (sparse arrivals)");

  metrics::Table table{{"keep-alive", "mode", "mean C_D", "idle memory (MB s)",
                        "cold requests"}};
  common::Rng rng{77};
  const auto schedule = workload::uniform_random(
      sim::Duration::from_minutes(2), sim::Duration::from_minutes(25),
      sim::Duration::from_minutes(6 * 60), rng);
  // A request is cold when its overhead exceeds this; the runs fold their
  // exact counter against it.
  const sim::Duration cold_threshold = sim::Duration::from_millis(1500);
  workload::RunOptions run;
  run.stream.over_threshold = cold_threshold;
  bool ok = true;

  for (const double keep_alive_s : {10.0, 60.0, 600.0, 1800.0}) {
    for (const auto& [name, kind] :
         {std::pair{"cold", core::PlatformKind::XanaduCold},
          std::pair{"jit", core::PlatformKind::XanaduJit}}) {
      core::DispatchManagerOptions options;
      options.kind = kind;
      options.seed = 77;
      auto calib = platform::xanadu_calibration();
      calib.keep_alive = sim::Duration::from_seconds(keep_alive_s);
      options.calibration = calib;
      core::DispatchManager manager{options};
      const auto wf =
          manager.deploy(workflow::linear_chain(5, bench::chain_options(1000)));
      const auto outcome = workload::run_schedule(manager, wf, schedule, run);
      const auto cost = metrics::resource_cost(outcome.ledger_delta);
      const double cold_fraction = outcome.fraction_over(cold_threshold);
      ok = bench::fraction_over_is_exact(outcome, cold_threshold) && ok;
      table.add_row(
          {metrics::fmt(keep_alive_s, 0) + "s", name,
           metrics::fmt_ms(outcome.mean_overhead_ms()),
           metrics::fmt(cost.idle_memory_mb_seconds, 0),
           metrics::fmt(cold_fraction *
                            static_cast<double>(outcome.results.size()),
                        0)});
    }
  }
  table.print("Depth-5 chain, ~6h of sparse arrivals (gaps 2-25 min)");
  bench::note("speculation keeps latency flat even at second-scale "
              "keep-alives, unlocking the idle-memory savings the paper "
              "projects in Section 7");
  if (!ok) {
    std::fprintf(stderr, "abl_keepalive: self-check failed -- a printed cold "
                         "count differs from the count over the retained "
                         "results\n");
    return 1;
  }
  return 0;
}
