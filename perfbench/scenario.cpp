#include "scenario.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "platform/calibration.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/case_studies.hpp"

namespace perfbench {

namespace {

// chain_jit: the 4-node, 5 ms linear chain of BENCH_scale.json's
// xanadu-jit_100k preset, with the same arrival recipe, so seed 42 replays
// that preset exactly.
constexpr std::size_t kChainRequests = 100'000;
constexpr std::int64_t kChainGapMs = 20;
constexpr std::uint64_t kChainArrivalSalt = 0x5ca1ab1eULL;

// mix_spec: weighted Poisson mix over three tenants on one 4-host manager.
constexpr std::int64_t kMixGapMs = 1000;
constexpr std::int64_t kMixHorizonMinutes = 333;
constexpr std::uint64_t kMixArrivalSalt = 0x0ddba11ULL;

// sharded_jit: four chain_jit tenants, one shard each, plus the fleet shard.
constexpr std::size_t kShardTenants = 4;
constexpr std::size_t kShardRequestsPerTenant = 10'000;

// Profile-training cold trials per deployed workflow (as the bench/ binaries).
constexpr std::size_t kTrainingTrials = 2;

workflow::BuildOptions chain_build_options() {
  workflow::BuildOptions opts;
  opts.exec_time = sim::Duration::from_millis(5);
  opts.edge_delay = sim::Duration::from_millis(5);
  opts.sandbox = workflow::SandboxKind::Container;
  return opts;
}

/// Poisson arrivals with an exact count (workload::poisson fills a horizon
/// instead, which would make the request count seed-dependent).  Same draw
/// sequence as bench/scale_throughput.cpp's generator.
workload::ArrivalSchedule poisson_exact(std::size_t count,
                                        sim::Duration mean_gap,
                                        common::Rng& rng) {
  workload::ArrivalSchedule schedule;
  schedule.reserve(count);
  sim::Duration t = sim::Duration::zero();
  for (std::size_t i = 0; i < count; ++i) {
    t += sim::Duration::from_micros(static_cast<std::int64_t>(
        std::ceil(rng.exponential(static_cast<double>(mean_gap.micros())))));
    schedule.push_back(t);
  }
  return schedule;
}

std::unique_ptr<core::DispatchManager> make_manager(core::PlatformKind kind,
                                                    std::uint64_t seed,
                                                    bool control_bus,
                                                    std::size_t hosts) {
  core::DispatchManagerOptions options;
  options.kind = kind;
  options.seed = seed;
  options.cluster.host_count = hosts;
  platform::PlatformCalibration calibration = core::preset_calibration(kind);
  calibration.control_bus.enabled = control_bus;
  options.calibration = calibration;
  return std::make_unique<core::DispatchManager>(options);
}

/// Deploys `dags` on `manager` in order, then trains every workflow's
/// profiles with cold trials, recording the two phases as child spans.
void deploy_and_train(core::DispatchManager& manager,
                      std::vector<workflow::WorkflowDag> dags,
                      Scenario& scenario, SpanLog* spans, int parent) {
  const int deploy = spans != nullptr ? spans->begin("setup.deploy", parent) : -1;
  const std::size_t first = scenario.workflows.size();
  for (workflow::WorkflowDag& dag : dags) {
    scenario.workflows.push_back(manager.deploy(std::move(dag)));
  }
  if (spans != nullptr) spans->end(deploy);
  const int train = spans != nullptr ? spans->begin("setup.train", parent) : -1;
  for (std::size_t i = first; i < scenario.workflows.size(); ++i) {
    scenario.cold_cd_ms.push_back(
        workload::run_cold_trials(manager, scenario.workflows[i], kTrainingTrials)
            .mean_overhead_ms());
  }
  if (spans != nullptr) spans->end(train);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "chain_jit") return Workload::ChainJit;
  if (name == "mix_spec") return Workload::MixSpec;
  if (name == "sharded_jit") return Workload::ShardedJit;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::ChainJit: return "chain_jit";
    case Workload::MixSpec: return "mix_spec";
    case Workload::ShardedJit: return "sharded_jit";
  }
  return "?";
}

std::size_t Scenario::requests() const {
  if (workload == Workload::ShardedJit) {
    std::size_t total = 0;
    for (const workload::ShardedSource& shard : shards) total += shard.schedule.size();
    return total;
  }
  return mix.total_requests();
}

Scenario set_up(Workload workload, std::uint64_t seed, SpanLog* spans,
                int parent) {
  Scenario scenario;
  scenario.workload = workload;
  switch (workload) {
    case Workload::ChainJit: {
      scenario.managers.push_back(
          make_manager(core::PlatformKind::XanaduJit, seed, false, 1));
      std::vector<workflow::WorkflowDag> dags;
      dags.push_back(workflow::linear_chain(4, chain_build_options()));
      deploy_and_train(*scenario.managers.back(), std::move(dags), scenario,
                       spans, parent);
      break;
    }
    case Workload::MixSpec: {
      scenario.managers.push_back(
          make_manager(core::PlatformKind::XanaduSpeculative, seed, true, 4));
      std::vector<workflow::WorkflowDag> dags;
      dags.push_back(workload::image_pipeline());
      dags.push_back(workload::ecommerce_checkout());
      dags.push_back(workflow::xor_cast_dag());
      deploy_and_train(*scenario.managers.back(), std::move(dags), scenario,
                       spans, parent);
      break;
    }
    case Workload::ShardedJit: {
      for (std::size_t tenant = 0; tenant < kShardTenants; ++tenant) {
        scenario.managers.push_back(make_manager(
            core::PlatformKind::XanaduJit, seed + 1000 * tenant, true, 1));
        std::vector<workflow::WorkflowDag> dags;
        dags.push_back(workflow::linear_chain(4, chain_build_options()));
        deploy_and_train(*scenario.managers.back(), std::move(dags), scenario,
                         spans, parent);
      }
      break;
    }
  }
  return scenario;
}

void make_arrivals(Scenario& scenario, std::uint64_t seed, double scale) {
  const auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  switch (scenario.workload) {
    case Workload::ChainJit: {
      common::Rng rng{seed ^ kChainArrivalSalt};
      scenario.mix = {};
      scenario.mix.add_source(
          scenario.workflows[0], "chain",
          poisson_exact(scaled(kChainRequests),
                        sim::Duration::from_millis(kChainGapMs), rng));
      break;
    }
    case Workload::MixSpec: {
      common::Rng rng{seed ^ kMixArrivalSalt};
      const auto horizon = sim::Duration::from_micros(static_cast<std::int64_t>(
          static_cast<double>(
              sim::Duration::from_minutes(kMixHorizonMinutes).micros()) *
          scale));
      scenario.mix = workload::poisson_mix(
          {{scenario.workflows[0], "image-pipeline", 5.0},
           {scenario.workflows[1], "ecommerce", 3.0},
           {scenario.workflows[2], "xor-cast", 2.0}},
          sim::Duration::from_millis(kMixGapMs), horizon, rng);
      break;
    }
    case Workload::ShardedJit: {
      scenario.shards.clear();
      for (std::size_t tenant = 0; tenant < scenario.managers.size(); ++tenant) {
        workload::ShardedSource source;
        source.manager = scenario.managers[tenant].get();
        source.workflow = scenario.workflows[tenant];
        source.name = "tenant-" + std::to_string(tenant);
        common::Rng rng{(seed ^ kChainArrivalSalt) + tenant};
        source.schedule =
            poisson_exact(scaled(kShardRequestsPerTenant),
                          sim::Duration::from_millis(kChainGapMs), rng);
        scenario.shards.push_back(std::move(source));
      }
      break;
    }
  }
}

workload::RunOptions run_options(bool retain_results, unsigned threads) {
  workload::RunOptions options;
  options.retain_results = retain_results;
  options.threads = threads;
  // C_D histogram: the default 512 x 1 ms range sends every container cold
  // start (~3 s) and the multi-second C_D of the start-up backlog into the
  // overflow bucket.  200 s covers the p99 of every workload (sharded_jit's
  // is ~80 s).
  options.stream.histogram_bin_ms = 2.0;
  options.stream.histogram_bins = 100'000;
  return options;
}

double timing_scale(Workload workload) {
  switch (workload) {
    case Workload::ChainJit: return 0.1;
    case Workload::MixSpec: return 0.25;
    case Workload::ShardedJit: return 0.25;
  }
  return 1.0;
}

unsigned replay_threads(Workload workload) {
  if (workload != Workload::ShardedJit) return 1;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, nproc);
}

Replay replay(Scenario& scenario, const workload::RunOptions& options) {
  Replay out;
  if (scenario.workload == Workload::ShardedJit) {
    const Clock::time_point start = Clock::now();
    workload::ShardedOutcome sharded =
        workload::run_sharded_mix(scenario.shards, options);
    out.wall_s = seconds_between(start, Clock::now());
    out.mixed = std::move(sharded.mixed);
    out.windows = sharded.windows;
    out.cross_shard_messages = sharded.cross_shard_messages;
    out.sharded_events = sharded.events_fired;
    return out;
  }
  core::DispatchManager& manager = *scenario.managers.front();
  if (scenario.workload == Workload::ChainJit) {
    const workload::TrafficSource& source = scenario.mix.sources().front();
    const Clock::time_point start = Clock::now();
    workload::RunOutcome outcome =
        workload::run_schedule(manager, source.workflow, source.schedule, options);
    out.wall_s = seconds_between(start, Clock::now());
    out.mixed.per_source.push_back(outcome);
    out.mixed.source_names.push_back(source.name);
    out.mixed.aggregate = std::move(outcome);
    return out;
  }
  const Clock::time_point start = Clock::now();
  out.mixed = workload::run_mixed_schedule(manager, scenario.mix, options);
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

}  // namespace perfbench
