// Multi-tenant scale benchmark: mixed traffic from several concurrently
// deployed workflows replayed through one Dispatch Manager, the second point
// on the repo's recorded performance trajectory (BENCH_multitenant.json).
//
// The paper's Dispatch Manager (Section 4, Figure 11) serves every deployed
// chain of the platform at once; the figure benches drive one workflow at a
// time.  This bench replays an interleaved open-loop mix -- the e-commerce
// checkout and image-processing case studies (Section 5.6) plus a random
// binary tree from the Section 5.3 corpus -- through the Knative-like
// baseline and the Xanadu JIT presets, using workload::TrafficMix /
// run_mixed_schedule for the deterministic merge.
//
// A third preset group records the sharded thread curve: the same three
// tenants, each on its own DispatchManager shard with the control bus on,
// run as independent tasks (workload::run_sharded_mix) at threads 1/2/4.
// Per-source digests must be
// byte-identical across the curve; `threads` / `speedup_vs_one_thread` and
// the document-level `hardware_concurrency` make curves from different
// machines comparable.
//
// Self-checks (always on):
//   * per-workflow request conservation: every source gets exactly one
//     result per arrival, with zero failures,
//   * interleaving actually happened (no preset degenerates to one tenant),
//   * deterministic replay: re-running the first preset reproduces the
//     per-source trace digests bit-for-bit,
//   * virtual time outruns wall clock.
//
// Usage:
//   scale_multitenant [--smoke] [--json PATH]
//     --smoke   short horizon; used by the scale_multitenant_smoke CTest
//               (no JSON by default)
//     --json    output path (default BENCH_multitenant.json; "-" disables)
//
// The emitted BENCH_multitenant.json schema is documented in EXPERIMENTS.md
// ("BENCH_multitenant.json schema").

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
#include "workflow/random_tree.hpp"
#include "workload/arrivals.hpp"
#include "workload/case_studies.hpp"
#include "workload/traffic_mix.hpp"

namespace {

using namespace xanadu;

struct SourceResult {
  std::string name;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double mean_overhead_ms = 0.0;
  double mean_end_to_end_ms = 0.0;
  double mean_cold_starts = 0.0;
  std::string digest;  // Per-source trace digest; pins determinism.
};

struct PresetResult {
  std::string name;
  std::string platform;
  unsigned threads = 1;  // OS threads used; 1 for the single-manager presets.
  // events/s relative to the sharded curve's threads=1 point (1.0 outside
  // the curve -- the single-manager presets have no curve to scale on).
  double speedup_vs_one_thread = 1.0;
  std::size_t requests = 0;
  std::uint64_t events_fired = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double virtual_seconds = 0.0;
  double speedup_virtual_over_wall = 0.0;
  double rss_peak_mib = 0.0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<SourceResult> sources;
};

struct MixScale {
  sim::Duration mean_gap;  // Aggregate mean inter-arrival gap.
  sim::Duration horizon;   // Arrival window.
};

/// The three tenants, deployed in a fixed order so FunctionIds (and thus
/// digests) are reproducible.  The random tree is regenerated identically
/// per preset from its own seeded rng.
std::vector<workflow::WorkflowDag> tenant_dags() {
  std::vector<workflow::WorkflowDag> dags;
  dags.push_back(workload::ecommerce_checkout());
  dags.push_back(workload::image_pipeline());
  workflow::RandomTreeOptions tree_opts;
  tree_opts.node_count = 7;
  common::Rng tree_rng{0x7ee5eedULL};
  dags.push_back(workflow::random_binary_tree(tree_opts, tree_rng));
  return dags;
}

PresetResult run_preset(core::PlatformKind kind, const MixScale& scale,
                        std::uint64_t seed) {
  // A small multi-host cluster: one testbed host cannot absorb the baseline
  // platform's cold-start backlog at the full aggregate rate.
  cluster::ClusterOptions cluster_opts;
  cluster_opts.host_count = 4;
  auto manager = bench::make_manager(kind, seed, {}, cluster_opts);
  const std::vector<workflow::WorkflowDag> dags = tenant_dags();

  std::vector<common::WorkflowId> ids;
  ids.reserve(dags.size());
  for (const workflow::WorkflowDag& dag : dags) {
    ids.push_back(manager.deploy(dag));
    bench::train_profiles(manager, ids.back(), 2);
  }

  // Weighted shares: the short homogeneous image pipeline carries most of
  // the traffic, the heavyweight checkout less, the random tree least.
  common::Rng arrivals_rng{seed ^ 0x0ddba11ULL};
  const workload::TrafficMix mix = workload::poisson_mix(
      {{ids[0], "ecommerce", 3.0},
       {ids[1], "image-pipeline", 5.0},
       {ids[2], "random-tree", 2.0}},
      scale.mean_gap, scale.horizon, arrivals_rng);

  const std::uint64_t events_before = manager.simulator().events_fired();
  const sim::TimePoint virtual_before = manager.simulator().now();
  // Stream-only: per-tenant aggregates and digests fold during the replay
  // (the per-source lanes of metrics::StreamingTrace); nothing is retained.
  workload::RunOptions options;
  options.retain_results = false;
  const auto start = bench::WallClock::now();
  const workload::MixedOutcome outcome =
      workload::run_mixed_schedule(manager, mix, options);
  const double wall = bench::seconds_since(start);
  const std::uint64_t events =
      manager.simulator().events_fired() - events_before;
  const double virtual_span =
      (manager.simulator().now() - virtual_before).seconds();

  PresetResult result;
  result.platform = core::to_string(kind);
  result.name = std::string{core::to_string(kind)} + "_mix";
  result.requests = mix.total_requests();
  result.events_fired = events;
  result.wall_seconds = wall;
  result.events_per_sec = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  result.virtual_seconds = virtual_span;
  result.speedup_virtual_over_wall = wall > 0.0 ? virtual_span / wall : 0.0;
  result.rss_peak_mib = bench::peak_rss_mib();
  result.completed = outcome.aggregate.completed_count();
  result.failed = outcome.aggregate.failed_count();
  for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
    const workload::RunOutcome& src = outcome.per_source[s];
    SourceResult sr;
    sr.name = outcome.source_names[s];
    sr.requests = mix.sources()[s].schedule.size();
    sr.completed = src.completed_count();
    sr.failed = src.failed_count();
    sr.mean_overhead_ms = src.mean_overhead_ms();
    sr.mean_end_to_end_ms = src.mean_end_to_end_ms();
    sr.mean_cold_starts = src.mean_cold_starts();
    sr.digest = metrics::digest_hex(src.trace_digest);
    result.sources.push_back(std::move(sr));
  }
  return result;
}

/// The sharded counterpart of run_preset: one DispatchManager per tenant
/// (all Xanadu JIT, control bus on), per-tenant Poisson arrivals at a third
/// of the aggregate rate, each shard run as its own task on `threads` OS
/// threads.
PresetResult run_sharded_preset(const MixScale& scale, std::uint64_t seed,
                                unsigned threads) {
  const std::vector<workflow::WorkflowDag> dags = tenant_dags();
  const char* names[] = {"ecommerce", "image-pipeline", "random-tree"};

  std::vector<std::unique_ptr<core::DispatchManager>> managers;
  std::vector<workload::ShardedSource> shards;
  for (std::size_t tenant = 0; tenant < dags.size(); ++tenant) {
    core::DispatchManagerOptions options;
    options.kind = core::PlatformKind::XanaduJit;
    options.seed = seed + 1000 * tenant;
    platform::PlatformCalibration calibration = platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    auto manager = std::make_unique<core::DispatchManager>(options);

    workload::ShardedSource source;
    source.manager = manager.get();
    source.workflow = manager->deploy(dags[tenant]);
    bench::train_profiles(*manager, source.workflow, 2);
    source.name = names[tenant];
    common::Rng arrivals_rng{(seed ^ 0x0ddba11ULL) + tenant};
    source.schedule = workload::poisson(
        scale.mean_gap * 3.0, scale.horizon, arrivals_rng);
    if (source.schedule.empty()) {
      source.schedule = workload::fixed_interval(4, scale.mean_gap * 3.0);
    }
    shards.push_back(std::move(source));
    managers.push_back(std::move(manager));
  }

  workload::RunOptions options;
  options.retain_results = false;
  options.threads = threads;
  const auto start = bench::WallClock::now();
  const workload::ShardedOutcome outcome =
      workload::run_sharded_mix(shards, options);
  const double wall = bench::seconds_since(start);
  double virtual_span = 0.0;
  for (const std::unique_ptr<core::DispatchManager>& manager : managers) {
    virtual_span = std::max(virtual_span, manager->simulator().now().seconds());
  }

  PresetResult result;
  result.platform = "xanadu-jit";
  result.name = "xanadu-jit_sharded_t" + std::to_string(threads);
  result.threads = threads;
  result.events_fired = outcome.events_fired;
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(outcome.events_fired) / wall : 0.0;
  result.virtual_seconds = virtual_span;
  result.speedup_virtual_over_wall = wall > 0.0 ? virtual_span / wall : 0.0;
  result.rss_peak_mib = bench::peak_rss_mib();
  result.completed = outcome.mixed.aggregate.completed_count();
  result.failed = outcome.mixed.aggregate.failed_count();
  for (std::size_t s = 0; s < outcome.mixed.per_source.size(); ++s) {
    const workload::RunOutcome& src = outcome.mixed.per_source[s];
    SourceResult sr;
    sr.name = outcome.mixed.source_names[s];
    sr.requests = shards[s].schedule.size();
    sr.completed = src.completed_count();
    sr.failed = src.failed_count();
    sr.mean_overhead_ms = src.mean_overhead_ms();
    sr.mean_end_to_end_ms = src.mean_end_to_end_ms();
    sr.mean_cold_starts = src.mean_cold_starts();
    sr.digest = metrics::digest_hex(src.trace_digest);
    result.requests += sr.requests;
    result.sources.push_back(std::move(sr));
  }
  return result;
}

common::JsonValue to_json(const PresetResult& r) {
  common::JsonObject o;
  o.set("name", r.name);
  o.set("platform", r.platform);
  o.set("threads", static_cast<double>(r.threads));
  o.set("speedup_vs_one_thread", r.speedup_vs_one_thread);
  o.set("requests", static_cast<double>(r.requests));
  o.set("events_fired", static_cast<double>(r.events_fired));
  o.set("wall_seconds", r.wall_seconds);
  o.set("events_per_sec", r.events_per_sec);
  o.set("virtual_seconds", r.virtual_seconds);
  o.set("speedup_virtual_over_wall", r.speedup_virtual_over_wall);
  o.set("rss_peak_mib", r.rss_peak_mib);
  o.set("completed", static_cast<double>(r.completed));
  o.set("failed", static_cast<double>(r.failed));
  common::JsonArray sources;
  sources.reserve(r.sources.size());
  for (const SourceResult& s : r.sources) {
    common::JsonObject so;
    so.set("source", s.name);
    so.set("requests", static_cast<double>(s.requests));
    so.set("completed", static_cast<double>(s.completed));
    so.set("failed", static_cast<double>(s.failed));
    so.set("mean_overhead_ms", s.mean_overhead_ms);
    so.set("mean_end_to_end_ms", s.mean_end_to_end_ms);
    so.set("mean_cold_starts", s.mean_cold_starts);
    so.set("digest", s.digest);
    sources.push_back(common::JsonValue{std::move(so)});
  }
  o.set("sources", common::JsonValue{std::move(sources)});
  return common::JsonValue{std::move(o)};
}

void print_result(const PresetResult& r) {
  std::printf(
      "  %-18s %7zu req  %10llu events  %7.3fs wall  %11.0f ev/s  "
      "%8.0fx speedup  %6.1f MiB peak\n",
      r.name.c_str(), r.requests,
      static_cast<unsigned long long>(r.events_fired), r.wall_seconds,
      r.events_per_sec, r.speedup_virtual_over_wall, r.rss_peak_mib);
  for (const SourceResult& s : r.sources) {
    std::printf("    %-16s %7zu req  C_D %8.1f ms  e2e %8.1f ms  "
                "%4.2f cold/req  digest %s\n",
                s.name.c_str(), s.requests, s.mean_overhead_ms,
                s.mean_end_to_end_ms, s.mean_cold_starts, s.digest.c_str());
  }
}

void fail(const char* what) {
  std::fprintf(stderr, "scale_multitenant: SELF-CHECK FAILED: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::optional<std::string> json_arg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_arg = argv[++i];
    } else {
      std::fprintf(stderr, "usage: scale_multitenant [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  // --smoke only changes the default path; an explicit --json always wins.
  const std::string json_path =
      json_arg.value_or(smoke ? "-" : "BENCH_multitenant.json");

  bench::banner(smoke ? "Multi-tenant mixed-traffic replay (smoke)"
                      : "Multi-tenant mixed-traffic replay");

  // Aggregate arrival rate: one request per mean_gap across all tenants.
  const MixScale scale =
      smoke ? MixScale{sim::Duration::from_millis(500),
                       sim::Duration::from_seconds(60)}
            : MixScale{sim::Duration::from_millis(250),
                       sim::Duration::from_minutes(5)};

  std::vector<PresetResult> results;
  for (const core::PlatformKind kind :
       {core::PlatformKind::KnativeLike, core::PlatformKind::XanaduJit}) {
    results.push_back(run_preset(kind, scale, /*seed=*/42));
    print_result(results.back());
  }

  // Sharded thread curve: one shard per tenant, run at 1/2/4 threads.  The
  // threads=1 point anchors the speedups.
  std::vector<std::size_t> curve_index;
  for (const unsigned threads : {1u, 2u, 4u}) {
    PresetResult point = run_sharded_preset(scale, /*seed=*/42, threads);
    if (threads > 1) {
      const PresetResult& base = results[curve_index.front()];
      point.speedup_vs_one_thread =
          base.events_per_sec > 0.0 ? point.events_per_sec / base.events_per_sec
                                    : 0.0;
    }
    curve_index.push_back(results.size());
    results.push_back(std::move(point));
    print_result(results.back());
  }

  // Self-checks (always on; --smoke exists so CTest runs them quickly).
  for (const PresetResult& r : results) {
    if (r.sources.size() < 3) fail("fewer than 3 concurrent workflows");
    std::size_t total = 0;
    for (const SourceResult& s : r.sources) {
      if (s.requests == 0) fail("a tenant produced no traffic");
      if (s.completed + s.failed != s.requests) {
        fail("per-workflow request conservation violated");
      }
      if (s.failed != 0) fail("fault-free mix had failed requests");
      total += s.requests;
    }
    if (total != r.requests) fail("aggregate/source request counts disagree");
    if (r.completed != r.requests) fail("mixed replay lost requests");
    if (r.speedup_virtual_over_wall <= 1.0) {
      fail("virtual time ran slower than wall clock");
    }
  }
  // Replay determinism: same seed, same per-source digests.
  {
    const PresetResult& first = results.front();
    const PresetResult again =
        run_preset(core::PlatformKind::KnativeLike, scale, /*seed=*/42);
    for (std::size_t s = 0; s < first.sources.size(); ++s) {
      if (again.sources[s].digest != first.sources[s].digest) {
        fail("mixed replay digest diverged");
      }
    }
  }
  // Thread-count invariance across the sharded curve: every point must
  // reproduce the sequential point's per-source digests bit-for-bit.
  {
    const PresetResult& base = results[curve_index.front()];
    for (const std::size_t i : curve_index) {
      const PresetResult& point = results[i];
      if (point.sources.size() != base.sources.size()) {
        fail("sharded curve lost a tenant lane");
      }
      for (std::size_t s = 0; s < base.sources.size(); ++s) {
        if (point.sources[s].digest != base.sources[s].digest) {
          fail("sharded curve digest varies with thread count");
        }
      }
      if (point.events_fired != base.events_fired) {
        fail("sharded curve event count varies with thread count");
      }
    }
  }
  std::printf("  self-checks: OK\n");

  common::JsonArray presets;
  presets.reserve(results.size());
  for (const PresetResult& r : results) presets.push_back(to_json(r));
  if (!bench::write_json_doc(
          json_path, "xanadu.bench.multitenant/v2",
          "weighted Poisson mix (ecommerce 3 : image-pipeline 5 : "
          "random-tree 2), seed 42; per-preset aggregate rate = 1 request "
          "per mean gap across all tenants; sharded curve: one shard per "
          "tenant, per-tenant gap = 3x mean gap, threads 1/2/4",
          std::move(presets),
          {{"hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency())}})) {
    return 1;
  }
  return 0;
}
