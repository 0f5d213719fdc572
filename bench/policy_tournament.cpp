// Provisioning-policy tournament: the policy lab's head-to-head benchmark
// (BENCH_policies.json).
//
// Sweeps provisioning policies x multi-tenant traffic mixes x fault plans
// through one shared platform (Xanadu calibration, identical cluster
// mechanics), so every cell isolates the provisioning DECISION: Xanadu's
// chain-aware speculation (paper Section 4), in its speculative and JIT
// (Section 3.2.2) modes, against the fixed warm-pool design of Lin &
// Glikson (arXiv:1903.12221) and rolling-horizon MPC provisioning after
// Nguyen et al. (arXiv:2508.07640), with the paper's naive prewarm-all as
// the resource-burn ceiling.  The tenants are three workflows deployed
// concurrently on one Dispatch Manager: the e-commerce checkout and
// image-processing case studies (Section 5.6) and a 7-node random binary
// tree from the Section 5.3 corpus.
//
// Per cell the bench records the paper's metrics of goodness and cost
// (Section 2.4): mean C_D, the p99 overhead from the streamed histogram,
// the cold-start fraction, and the resource-cost ledger delta -- plus the
// per-source trace digests that pin replay determinism.
//
// Self-checks (always on):
//   * every cell conserves requests (one result per arrival), and every
//     tenant of every cell receives traffic,
//   * fault-free cells complete everything; faulted cells lose nothing
//     silently (completed + failed == submitted),
//   * deterministic replay: re-running the first cell reproduces its
//     per-source trace digests bit-for-bit,
//   * every policy actually provisions (a policy that never warms anything
//     would win the cost column by forfeit).
//
// Usage:
//   policy_tournament [--smoke] [--json PATH]
//     --smoke   short horizon; used by the policy_tournament_smoke CTest
//               (no JSON by default)
//     --json    output path (default BENCH_policies.json; "-" disables)
//
// The emitted BENCH_policies.json schema (xanadu.bench.policies/v1) is
// documented in EXPERIMENTS.md.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "metrics/trace.hpp"
#include "workflow/random_tree.hpp"
#include "workload/case_studies.hpp"
#include "workload/traffic_mix.hpp"

namespace {

using namespace xanadu;

struct TenantMix {
  const char* name;
  double ecommerce_weight;
  double image_weight;
  double tree_weight;
};

struct FaultCell {
  const char* name;
  bool enabled;
};

struct SourceDigest {
  std::string name;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double mean_overhead_ms = 0.0;
  std::string digest;
};

struct CellResult {
  std::string policy;
  std::string mix;
  std::string faults;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  // Goodness (paper Section 2.4, Equation 1).
  double mean_overhead_ms = 0.0;       // mean C_D
  double p99_overhead_ms = 0.0;        // streamed-histogram tail
  double fraction_over_100ms = 0.0;    // exact streamed counter
  double cold_start_fraction = 0.0;    // cold starts / node executions
  // Cost (paper Section 2.4, Equation 2; ledger delta over the run).
  metrics::ResourceCost cost;
  std::uint64_t executions = 0;
  double wall_seconds = 0.0;
  std::uint64_t events_fired = 0;
  std::vector<SourceDigest> sources;
};

struct Scale {
  sim::Duration mean_gap;
  sim::Duration horizon;
};

/// The three tenants, deployed in a fixed order so FunctionIds (and thus
/// digests) are reproducible across cells.
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

CellResult run_cell(core::PlatformKind kind, const TenantMix& mix,
                    const FaultCell& faults, const Scale& scale,
                    std::uint64_t seed) {
  core::DispatchManagerOptions opts;
  opts.kind = kind;
  opts.seed = seed;
  opts.cluster.host_count = 4;
  if (faults.enabled) {
    // Crash-heavy plan: worker crashes exercise the policies' reaction to
    // lost capacity, provision failures their reaction to lost builds.
    opts.faults.worker_crash_rate = 0.05;
    opts.faults.provision_failure_rate = 0.05;
  }
  core::DispatchManager manager{opts};

  const std::vector<workflow::WorkflowDag> dags = tenant_dags();
  std::vector<common::WorkflowId> ids;
  ids.reserve(dags.size());
  for (const workflow::WorkflowDag& dag : dags) {
    ids.push_back(manager.deploy(dag));
    bench::train_profiles(manager, ids.back(), 2);
  }

  common::Rng arrivals_rng{seed ^ 0x0ddba11ULL};
  const workload::TrafficMix traffic = workload::poisson_mix(
      {{ids[0], "ecommerce", mix.ecommerce_weight},
       {ids[1], "image-pipeline", mix.image_weight},
       {ids[2], "random-tree", mix.tree_weight}},
      scale.mean_gap, scale.horizon, arrivals_rng);

  workload::RunOptions options;
  options.retain_results = false;
  options.allow_incomplete = faults.enabled;
  const std::uint64_t events_before = manager.simulator().events_fired();
  const auto start = bench::WallClock::now();
  const workload::MixedOutcome outcome =
      workload::run_mixed_schedule(manager, traffic, options);
  const double wall = bench::seconds_since(start);

  CellResult cell;
  cell.policy = core::to_string(kind);
  cell.mix = mix.name;
  cell.faults = faults.name;
  cell.requests = traffic.total_requests();
  cell.completed = outcome.aggregate.completed_count();
  cell.failed = outcome.aggregate.failed_count();
  cell.mean_overhead_ms = outcome.aggregate.mean_overhead_ms();
  cell.p99_overhead_ms = outcome.aggregate.histogram.quantile_ms(0.99);
  cell.fraction_over_100ms =
      outcome.aggregate.fraction_over(sim::Duration::from_millis(100));
  cell.executions = outcome.aggregate.ledger_delta.executions;
  cell.cold_start_fraction =
      cell.executions > 0
          ? outcome.aggregate.stats.sum_cold_starts /
                static_cast<double>(cell.executions)
          : 0.0;
  cell.cost = metrics::resource_cost(outcome.aggregate.ledger_delta);
  cell.wall_seconds = wall;
  cell.events_fired = manager.simulator().events_fired() - events_before;
  for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
    const workload::RunOutcome& src = outcome.per_source[s];
    SourceDigest sd;
    sd.name = outcome.source_names[s];
    sd.requests = traffic.sources()[s].schedule.size();
    sd.completed = src.completed_count();
    sd.failed = src.failed_count();
    sd.mean_overhead_ms = src.mean_overhead_ms();
    sd.digest = metrics::digest_hex(src.trace_digest);
    cell.sources.push_back(std::move(sd));
  }
  return cell;
}

common::JsonValue to_json(const CellResult& c) {
  common::JsonObject o;
  o.set("policy", c.policy);
  o.set("mix", c.mix);
  o.set("faults", c.faults);
  o.set("requests", static_cast<double>(c.requests));
  o.set("completed", static_cast<double>(c.completed));
  o.set("failed", static_cast<double>(c.failed));
  o.set("mean_overhead_ms", c.mean_overhead_ms);
  o.set("p99_overhead_ms", c.p99_overhead_ms);
  o.set("fraction_over_100ms", c.fraction_over_100ms);
  o.set("cold_start_fraction", c.cold_start_fraction);
  o.set("executions", static_cast<double>(c.executions));
  common::JsonObject cost;
  cost.set("cpu_core_seconds", c.cost.cpu_core_seconds);
  cost.set("memory_mb_seconds", c.cost.memory_mb_seconds);
  cost.set("idle_cpu_core_seconds", c.cost.idle_cpu_core_seconds);
  cost.set("idle_memory_mb_seconds", c.cost.idle_memory_mb_seconds);
  cost.set("workers_provisioned",
           static_cast<double>(c.cost.workers_provisioned));
  cost.set("workers_wasted", static_cast<double>(c.cost.workers_wasted));
  o.set("resource_cost", common::JsonValue{std::move(cost)});
  o.set("wall_seconds", c.wall_seconds);
  o.set("events_fired", static_cast<double>(c.events_fired));
  common::JsonArray sources;
  sources.reserve(c.sources.size());
  for (const SourceDigest& s : c.sources) {
    common::JsonObject so;
    so.set("source", s.name);
    so.set("requests", static_cast<double>(s.requests));
    so.set("completed", static_cast<double>(s.completed));
    so.set("failed", static_cast<double>(s.failed));
    so.set("mean_overhead_ms", s.mean_overhead_ms);
    so.set("digest", s.digest);
    sources.push_back(common::JsonValue{std::move(so)});
  }
  o.set("sources", common::JsonValue{std::move(sources)});
  return common::JsonValue{std::move(o)};
}

void print_cell(const CellResult& c) {
  std::printf(
      "  %-18s %-14s %-9s %5zu req  C_D %8.1f ms  p99 %8.1f ms  "
      "cold %5.3f  cpu %8.1f cs  %3zu wasted\n",
      c.policy.c_str(), c.mix.c_str(), c.faults.c_str(), c.requests,
      c.mean_overhead_ms, c.p99_overhead_ms, c.cold_start_fraction,
      c.cost.cpu_core_seconds, c.cost.workers_wasted);
}

void fail(const char* what) {
  std::fprintf(stderr, "policy_tournament: SELF-CHECK FAILED: %s\n", what);
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
      std::fprintf(stderr, "usage: policy_tournament [--smoke] [--json PATH]\n");
      return 2;
    }
  }
  // --smoke only changes the default path; an explicit --json always wins.
  const std::string json_path =
      json_arg.value_or(smoke ? "-" : "BENCH_policies.json");

  bench::banner(smoke ? "Provisioning-policy tournament (smoke)"
                      : "Provisioning-policy tournament");

  const Scale scale = smoke ? Scale{sim::Duration::from_millis(500),
                                    sim::Duration::from_seconds(45)}
                            : Scale{sim::Duration::from_millis(250),
                                    sim::Duration::from_minutes(4)};

  const std::vector<std::pair<const char*, core::PlatformKind>> policies{
      {"xanadu-speculative", core::PlatformKind::XanaduSpeculative},
      {"xanadu-jit", core::PlatformKind::XanaduJit},
      {"warm-pool", core::PlatformKind::WarmPool},
      {"mpc-horizon", core::PlatformKind::MpcHorizon},
      {"prewarm-all", core::PlatformKind::PrewarmAll},
  };
  const std::vector<TenantMix> mixes{
      {"image-heavy", 3.0, 5.0, 2.0},
      {"checkout-heavy", 5.0, 2.0, 3.0},
  };
  const std::vector<FaultCell> fault_cells{
      {"fault-free", false},
      {"faulted", true},
  };

  std::vector<CellResult> cells;
  for (const auto& [label, kind] : policies) {
    (void)label;
    for (const TenantMix& mix : mixes) {
      for (const FaultCell& faults : fault_cells) {
        cells.push_back(run_cell(kind, mix, faults, scale, /*seed=*/42));
        print_cell(cells.back());
      }
    }
  }

  // Self-checks (always on; --smoke exists so CTest runs them quickly).
  if (policies.size() < 3) fail("fewer than 3 competing policies");
  if (mixes.size() < 2) fail("fewer than 2 tenant mixes");
  for (const CellResult& c : cells) {
    if (c.requests == 0) fail("a cell produced no traffic");
    if (c.completed + c.failed != c.requests) {
      fail("request conservation violated");
    }
    if (c.faults == "fault-free" && c.failed != 0) {
      fail("fault-free cell had failed requests");
    }
    if (c.sources.size() != 3) fail("a cell lost a tenant lane");
    for (const SourceDigest& s : c.sources) {
      if (s.requests == 0) fail("a tenant produced no traffic");
    }
    if (c.cost.workers_provisioned == 0) fail("a policy never provisioned");
  }
  // Replay determinism: re-running the first cell must reproduce its
  // per-source trace digests bit-for-bit.
  {
    const CellResult& first = cells.front();
    const CellResult again = run_cell(policies.front().second, mixes.front(),
                                      fault_cells.front(), scale, /*seed=*/42);
    for (std::size_t s = 0; s < first.sources.size(); ++s) {
      if (again.sources[s].digest != first.sources[s].digest) {
        fail("tournament replay digest diverged");
      }
    }
  }
  std::printf("  self-checks: OK\n");

  common::JsonArray presets;
  presets.reserve(cells.size());
  for (const CellResult& c : cells) presets.push_back(to_json(c));
  if (!bench::write_json_doc(
          json_path, "xanadu.bench.policies/v1",
          "policy tournament: {xanadu-speculative, xanadu-jit, warm-pool, "
          "mpc-horizon, prewarm-all} x {image-heavy 3:5:2, checkout-heavy "
          "5:2:3 weighted Poisson mixes} x {fault-free, faulted (5% worker "
          "crash + 5% provision failure)}, seed 42, 4 hosts",
          std::move(presets))) {
    return 1;
  }
  return 0;
}
