#pragma once

// Shared helpers for the figure/table reproduction binaries: manager
// construction, the standard platform preset lists, JIT/speculative profile
// training, series aggregation, wall-clock/RSS measurement, and JSON report
// emission.  Everything wall-clock-flavoured lives here (not in src/) on
// purpose and carries explicit lint:allow(wall-clock) annotations -- bench/
// is inside the determinism lint's scanned tree, but none of this feeds
// back into virtual time.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/cost.hpp"
#include "metrics/report.hpp"
#include "workflow/builders.hpp"
#include "workload/runner.hpp"

namespace xanadu::bench {

inline core::DispatchManager make_manager(core::PlatformKind kind,
                                          std::uint64_t seed = 42,
                                          core::XanaduOptions xo = {},
                                          cluster::ClusterOptions co = {}) {
  core::DispatchManagerOptions options;
  options.kind = kind;
  options.seed = seed;
  options.xanadu = xo;
  options.cluster = co;
  return core::DispatchManager{options};
}

inline workflow::BuildOptions chain_options(
    double exec_ms, workflow::SandboxKind sandbox = workflow::SandboxKind::Container) {
  workflow::BuildOptions opts;
  opts.exec_time = sim::Duration::from_millis(exec_ms);
  opts.edge_delay = sim::Duration::from_millis(5);
  opts.sandbox = sandbox;
  return opts;
}

// ---------------------------------------------------------------------------
// Preset sweeps.  The same named lists appear across the figure binaries;
// keeping them here keeps labels (and therefore report columns) consistent.
// ---------------------------------------------------------------------------

using SystemList = std::vector<std::pair<const char*, core::PlatformKind>>;

/// The paper's five-way comparison set (Figures 12, 17, ...).
inline const SystemList& standard_systems() {
  static const SystemList systems{
      {"knative", core::PlatformKind::KnativeLike},
      {"openwhisk", core::PlatformKind::OpenWhiskLike},
      {"xanadu-cold", core::PlatformKind::XanaduCold},
      {"xanadu-spec", core::PlatformKind::XanaduSpeculative},
      {"xanadu-jit", core::PlatformKind::XanaduJit},
  };
  return systems;
}

/// The three Xanadu deployment modes (Figures 12b/c, 13).
inline const SystemList& xanadu_modes() {
  static const SystemList modes{
      {"cold", core::PlatformKind::XanaduCold},
      {"spec", core::PlatformKind::XanaduSpeculative},
      {"jit", core::PlatformKind::XanaduJit},
  };
  return modes;
}

/// Kinds whose planner consumes learned execution profiles and therefore
/// needs warm-up requests before a measured trial.
inline bool needs_profiling(core::PlatformKind kind) {
  return kind == core::PlatformKind::XanaduJit ||
         kind == core::PlatformKind::XanaduSpeculative;
}

/// Trains the JIT/speculative profiles with `runs` cold trials when the
/// manager's kind needs them; no-op for the other platforms.
inline void train_profiles(core::DispatchManager& manager,
                           common::WorkflowId workflow, std::size_t runs) {
  if (needs_profiling(manager.kind()) && runs > 0) {
    (void)workload::run_cold_trials(manager, workflow, runs);
  }
}

/// Mean cold-trial overhead of `kind` on a linear chain, with the standard
/// protocol of Section 5.1: 10 triggers under cold-start conditions.  For
/// the JIT mode, `profile_runs` warm-up requests train the profiles first.
inline workload::RunOutcome run_chain_cold_trials(
    core::PlatformKind kind, std::size_t length, double exec_ms,
    std::size_t triggers = 10, std::size_t profile_runs = 2,
    workflow::SandboxKind sandbox = workflow::SandboxKind::Container,
    std::uint64_t seed = 42, core::XanaduOptions xo = {}) {
  auto manager = make_manager(kind, seed, xo);
  const auto wf =
      manager.deploy(workflow::linear_chain(length, chain_options(exec_ms, sandbox)));
  train_profiles(manager, wf, profile_runs);
  return workload::run_cold_trials(manager, wf, triggers);
}

// ---------------------------------------------------------------------------
// Series aggregation.
// ---------------------------------------------------------------------------

/// Mean of the elementwise ratios a[i] / b[i].
inline double mean_ratio(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] / b[i];
  return a.empty() ? 0.0 : total / static_cast<double>(a.size());
}

/// Largest element of a non-empty series.
inline double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Self-check for a bench that prints outcome.fraction_over(threshold): the
/// run's exact counter and that fraction must both agree with a count over
/// the retained results.  fraction_over is exact only at the run's
/// RunOptions::stream.over_threshold and answers any other threshold from
/// the histogram, so a bench that reports a threshold without setting it
/// fails here.
inline bool fraction_over_is_exact(const workload::RunOutcome& outcome,
                                   sim::Duration threshold) {
  std::uint64_t completed = 0;
  std::uint64_t over = 0;
  for (const platform::RequestResult& r : outcome.results) {
    if (r.failed) continue;
    ++completed;
    if (r.overhead > threshold) ++over;
  }
  const double exact = completed == 0 ? 0.0
                                      : static_cast<double>(over) /
                                            static_cast<double>(completed);
  return outcome.stats.over_threshold == over &&
         outcome.fraction_over(threshold) == exact;
}

// ---------------------------------------------------------------------------
// Wall-clock measurement (scale benches only; virtual time never sees it).
// ---------------------------------------------------------------------------

// lint:allow(wall-clock) deliberate: benches measure real elapsed time
using WallClock = std::chrono::steady_clock;

inline double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Process-wide peak resident set size in MiB (Linux ru_maxrss is KiB).
/// Monotone over the process lifetime: run presets smallest-first so the
/// value records each preset's high-water mark as it finishes.
inline double peak_rss_mib() {
  rusage usage{};
  // RSS is *reported next to* digests in the bench output, never folded
  // into one; the digest inputs are trace bytes only.
  // flow-lint:allow(nondet-taint)
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Report emission.
// ---------------------------------------------------------------------------

inline void banner(const std::string& text) {
  std::printf("\n############################################################\n"
              "# %s\n"
              "############################################################\n",
              text.c_str());
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

/// Writes the standard BENCH_*.json document shape: a schema tag, a prose
/// workload description, an optional set of document-level fields (e.g. the
/// host's hardware concurrency, so scaling curves from different machines
/// stay comparable), and a "presets" array.  Returns false (after printing
/// to stderr) when the file cannot be written; a path of "-" disables
/// emission and counts as success.
inline bool write_json_doc(
    const std::string& path, const std::string& schema,
    const std::string& workload, common::JsonArray presets,
    std::vector<std::pair<std::string, common::JsonValue>> extra = {}) {
  if (path == "-") return true;
  common::JsonObject doc;
  doc.set("schema", schema);
  doc.set("workload", workload);
  for (auto& [key, value] : extra) doc.set(key, std::move(value));
  doc.set("presets", common::JsonValue{std::move(presets)});
  std::ofstream out{path};
  out << common::JsonValue{std::move(doc)}.dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

}  // namespace xanadu::bench
