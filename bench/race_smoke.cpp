// Race-detector smoke: the preset x workload tie-race sweep as a
// standalone binary for CI and local runs.
//
// Runs the virtual-time race detector (sim/race_detector.hpp) over the
// knative, xanadu-jit and xanadu-speculative presets on the paper's two
// case-study chains plus a deterministic random conditional tree, under
// concurrent submissions (concurrency is what produces same-timestamp tie
// groups).  Exits nonzero when any order-dependent tie group is found, when
// the search was truncated, or when the sweep examined zero groups (a
// vacuous pass).  The speculative preset is part of the clean sweep since
// the keyed per-provision jitter streams fix (Cluster::
// sample_provision_latency forks with the stable key (function, worker));
// the order dependence its onset-time provision batch used to carry is the
// bug tools/xan_lint.py's shared-rng-draw rule now bans statically.
//
// As a self-check the binary also confirms the detector still CATCHES a
// genuine order dependence, via a synthetic racy fixture (two tied events
// whose composition is order-sensitive): a detector that stops detecting is
// as bad as a race.
//
// Usage: race_smoke [--verbose]
// Any other argument prints an error: line and exits 2.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "sim/race_detector.hpp"
#include "sim/simulator.hpp"
#include "workflow/random_tree.hpp"
#include "workload/case_studies.hpp"

namespace {

using xanadu::core::DispatchManager;
using xanadu::core::DispatchManagerOptions;
using xanadu::core::PlatformKind;

xanadu::workflow::WorkflowDag sweep_workload(const std::string& name) {
  if (name == "ecommerce") return xanadu::workload::ecommerce_checkout();
  if (name == "image_pipeline") return xanadu::workload::image_pipeline();
  xanadu::common::Rng rng{2024};
  xanadu::workflow::RandomTreeOptions opts;
  opts.node_count = 7;
  return xanadu::workflow::random_binary_tree(opts, rng);
}

xanadu::sim::RunObservation run_scenario(
    PlatformKind kind, const std::string& workload,
    const xanadu::sim::TiePermutation* permutation) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = 42;
  DispatchManager manager{options};
  xanadu::sim::TieRecorder recorder;
  manager.simulator().set_tie_recorder(&recorder);
  manager.simulator().set_probe_registry(&manager.probes());
  manager.simulator().set_tie_permutation(permutation);
  const xanadu::workflow::WorkflowDag dag = sweep_workload(workload);
  const auto wf = manager.deploy(sweep_workload(workload));
  std::vector<xanadu::platform::RequestResult> results;
  for (int i = 0; i < 3; ++i) {
    (void)manager.submit(wf,
                         [&results](const xanadu::platform::RequestResult& r) {
                           results.push_back(r);
                         });
  }
  manager.simulator().run();
  xanadu::sim::RunObservation obs;
  // Divergence digest: trace digest + engine state digest (warm-pool
  // membership, ledger balances), so races whose effects cancel out in the
  // trace still surface.
  obs.digest =
      xanadu::common::fnv1a_u64(manager.engine().state_digest(),
                                xanadu::metrics::trace_digest(results, dag));
  obs.ties = std::move(recorder);
  return obs;
}

/// Synthetic detector canary: two events tied at t=1ms whose composition is
/// order-sensitive (x *= 2 ; x += 3).  Must always be flagged.
xanadu::sim::RunObservation racy_fixture(
    const xanadu::sim::TiePermutation* permutation) {
  xanadu::sim::Simulator sim;
  std::uint64_t x = 5;
  xanadu::sim::TieRecorder recorder;
  sim.set_tie_recorder(&recorder);
  sim.set_tie_permutation(permutation);
  const xanadu::sim::TimePoint t =
      xanadu::sim::TimePoint{} + xanadu::sim::Duration::from_millis(1);
  sim.schedule_at(t, [&x] { x *= 2; }, "canary.double");
  sim.schedule_at(t, [&x] { x += 3; }, "canary.add");
  sim.run();
  xanadu::sim::RunObservation obs;
  obs.digest = xanadu::common::fnv1a_u64(x);
  obs.ties = std::move(recorder);
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "--verbose") != 0)) {
    std::fprintf(stderr, "error: usage: race_smoke [--verbose]\n");
    return 2;
  }
  const bool verbose = argc == 2;
  const std::vector<std::pair<const char*, PlatformKind>> presets{
      {"knative", PlatformKind::KnativeLike},
      {"xanadu-jit", PlatformKind::XanaduJit},
      {"xanadu-speculative", PlatformKind::XanaduSpeculative},
  };
  const std::vector<std::string> workloads{"ecommerce", "image_pipeline",
                                           "random_tree"};

  int failures = 0;
  std::size_t total_groups = 0;
  for (const auto& [label, kind] : presets) {
    for (const std::string& workload : workloads) {
      auto runner = [kind = kind, &workload](
                        const xanadu::sim::TiePermutation* permutation) {
        return run_scenario(kind, workload, permutation);
      };
      xanadu::sim::RaceCheckOptions options;
      options.sampled_permutations = 4;
      const xanadu::sim::RaceReport report =
          xanadu::sim::check_tie_races(runner, options);
      total_groups += report.groups_examined;
      const bool bad = !report.race_free() || report.truncated;
      if (bad) ++failures;
      if (bad || verbose) {
        std::printf("[%s] %s / %s: %s", bad ? "FAIL" : "ok", label,
                    workload.c_str(), report.to_string().c_str());
      } else {
        std::printf("[ok] %s / %s: %zu tie group(s), %zu replay(s), clean\n",
                    label, workload.c_str(), report.groups_examined,
                    report.permutations_run);
      }
    }
  }
  if (total_groups == 0) {
    std::printf("[FAIL] sweep examined zero tie groups (vacuous pass)\n");
    ++failures;
  }

  // Self-check: the detector must still catch a genuine order dependence.
  // A silent "all clean" on the synthetic racy fixture means the detector
  // broke, which would turn the whole sweep above into a vacuous pass.
  const xanadu::sim::RaceReport canary =
      xanadu::sim::check_tie_races(racy_fixture);
  if (canary.race_free()) {
    std::printf(
        "[FAIL] detector canary: the synthetic order dependence was not "
        "detected\n");
    ++failures;
  } else {
    std::printf("[ok] detector canary: synthetic dependence caught "
                "(%zu race(s))\n",
                canary.races.size());
    if (verbose) std::printf("%s", canary.to_string().c_str());
  }

  if (failures > 0) {
    std::printf("race_smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("race_smoke: all clean\n");
  return 0;
}
