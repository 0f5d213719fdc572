#include "layers.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "core/jit_planner.hpp"
#include "core/mlp.hpp"
#include "metrics/cost.hpp"
#include "metrics/streaming.hpp"
#include "metrics/trace.hpp"
#include "platform/engine.hpp"

namespace perfbench {

namespace {

/// (manager, workflow) pairs of a scenario, in tenant order.
std::vector<std::pair<core::DispatchManager*, common::WorkflowId>> deployments(
    Scenario& scenario) {
  std::vector<std::pair<core::DispatchManager*, common::WorkflowId>> out;
  for (std::size_t i = 0; i < scenario.workflows.size(); ++i) {
    core::DispatchManager* manager =
        scenario.managers.size() == 1 ? scenario.managers.front().get()
                                      : scenario.managers[i].get();
    out.emplace_back(manager, scenario.workflows[i]);
  }
  return out;
}

/// FNV-1a fold of one 64-bit value, little-endian bytes: how run_sharded_mix
/// combines per-shard digests.
std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median per-call host time in microseconds of `call`, over 7 batches.
template <typename Fn>
double time_calls_us(Fn&& call) {
  constexpr int kBatches = 7;
  constexpr int kCallsPerBatch = 400;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCallsPerBatch; ++i) call();
    per_call.push_back(seconds_between(start, Clock::now()) * 1e6 /
                       kCallsPerBatch);
  }
  return median(std::move(per_call));
}

}  // namespace

Counters snapshot(Scenario& scenario) {
  Counters c;
  for (const std::unique_ptr<core::DispatchManager>& manager : scenario.managers) {
    c.events_fired += manager->simulator().events_fired();
    c.slab_capacity += manager->simulator().slab_capacity();
    if (platform::MessageBus* bus = manager->engine().control_bus()) {
      c.bus_published += bus->published_count();
      c.bus_delivered += bus->delivered_count();
    }
    for (const sim::ProbeSample& sample : manager->probes().sample()) {
      if (sample.first == "pipeline.provisions_started") {
        c.provisions_started += sample.second;
      }
    }
  }
  return c;
}

Quantile quantile(const metrics::LatencyHistogram& histogram, double q) {
  Quantile out;
  const std::uint64_t count = histogram.count();
  if (count == 0) return out;
  const double rank = q * static_cast<double>(count);
  std::uint64_t below = 0;
  for (std::size_t bin = 0; bin < histogram.bins(); ++bin) {
    const std::uint64_t in_bin = histogram.bin_count(bin);
    if (in_bin > 0 && static_cast<double>(below + in_bin) >= rank) {
      const double width = histogram.bin_width_ms();
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bin);
      out.value_ms = width * (static_cast<double>(bin) + within);
      out.in_range = true;
      out.beyond = count - below - in_bin;
      return out;
    }
    below += in_bin;
  }
  out.value_ms = histogram.max_recorded_ms();
  out.beyond = 0;
  return out;
}

Modelled modelled(const Replay& replay) {
  const workload::RunOutcome& agg = replay.mixed.aggregate;
  Modelled m;
  m.attempted = agg.total_count();
  m.failed = agg.failed_count();
  m.cd_mean_ms = agg.mean_overhead_ms();
  m.cd_samples = agg.histogram.count();
  m.cd_max_ms = agg.histogram.max_recorded_ms();
  m.cd_p50 = quantile(agg.histogram, 0.50);
  m.cd_p99 = quantile(agg.histogram, 0.99);
  m.latency_mean_ms = agg.mean_end_to_end_ms();
  m.cold_starts_per_request = agg.mean_cold_starts();
  const metrics::ResourceCost cost = metrics::resource_cost(agg.ledger_delta);
  const double n = static_cast<double>(std::max<std::uint64_t>(1, m.attempted));
  m.cr_cpu_s_per_request = cost.cpu_core_seconds / n;
  m.cr_mem_mbs_per_request = cost.memory_mb_seconds / n;
  return m;
}

std::uint64_t refold_digest(Scenario& scenario, const Replay& replay) {
  const auto deps = deployments(scenario);
  if (scenario.workload == Workload::ShardedJit) {
    std::uint64_t fold = kFnvBasis;
    for (std::size_t i = 0; i < deps.size(); ++i) {
      metrics::StreamingTrace stream;
      stream.add_source(deps[i].first->engine().dag(deps[i].second),
                        scenario.shards[i].name);
      for (const platform::RequestResult& r : replay.mixed.per_source[i].results) {
        stream.consume(0, r);
      }
      fold = fnv_fold(fold, static_cast<std::uint64_t>(i));
      fold = fnv_fold(fold, stream.digest());
    }
    return fold;
  }
  // Single manager: one stream, sources in mix order, results in slot order.
  metrics::StreamingTrace stream;
  core::DispatchManager& manager = *scenario.managers.front();
  const bool single = scenario.workload == Workload::ChainJit;
  for (const workload::TrafficSource& source : scenario.mix.sources()) {
    stream.add_source(manager.engine().dag(source.workflow),
                      single ? std::string_view{} : std::string_view{source.name});
  }
  const std::vector<platform::RequestResult>& results =
      replay.mixed.aggregate.results;
  if (single) {
    for (const platform::RequestResult& r : results) stream.consume(0, r);
  } else {
    const std::vector<workload::MixedArrival> merged = scenario.mix.merged();
    for (std::size_t slot = 0; slot < results.size(); ++slot) {
      stream.consume(merged[slot].source, results[slot]);
    }
  }
  return stream.digest();
}

std::uint64_t trace_bytes(Scenario& scenario, const Replay& replay) {
  const auto deps = deployments(scenario);
  std::uint64_t bytes = 0;
  std::string row;
  for (std::size_t lane = 0; lane < replay.mixed.per_source.size(); ++lane) {
    const workflow::WorkflowDag& dag =
        deps[lane].first->engine().dag(deps[lane].second);
    for (const platform::RequestResult& r : replay.mixed.per_source[lane].results) {
      row.clear();
      metrics::append_trace_csv(row, r, dag);
      bytes += row.size();
    }
  }
  return bytes;
}

std::vector<SteadyState> steady_state(const Scenario& scenario,
                                      const Replay& replay) {
  std::vector<SteadyState> out;
  for (std::size_t lane = 0; lane < replay.mixed.per_source.size(); ++lane) {
    std::vector<double> cd;
    for (const platform::RequestResult& r : replay.mixed.per_source[lane].results) {
      if (!r.failed) cd.push_back(r.overhead.millis());
    }
    if (cd.size() < 10) continue;
    const std::size_t tenth = cd.size() / 10;
    double middle = 0.0;
    for (std::size_t i = tenth; i < 9 * tenth; ++i) middle += cd[i];
    double last = 0.0;
    for (std::size_t i = 9 * tenth; i < cd.size(); ++i) last += cd[i];
    SteadyState s;
    s.lane = replay.mixed.source_names[lane];
    s.middle_ms = middle / static_cast<double>(8 * tenth);
    s.last_ms = last / static_cast<double>(cd.size() - 9 * tenth);
    s.cold_ms = scenario.cold_cd_ms[lane];
    out.push_back(std::move(s));
  }
  return out;
}

CoreTiming time_core(Scenario& scenario, bool plan, SpanLog& spans) {
  CoreTiming out;
  const auto deps = deployments(scenario);
  // Stores to a volatile keep the timed calls from being optimised away.
  volatile std::size_t sink = 0;
  const int mlp_span = spans.begin("core.mlp");
  for (const auto& [manager, workflow] : deps) {
    const core::XanaduPolicy& policy = *manager->xanadu_policy();
    const core::BranchModel& model = *policy.model(workflow);
    out.mlp_us += time_calls_us([&] {
      sink = core::estimate_mlp(model, policy.options().mlp).path.size();
    });
  }
  spans.end(mlp_span);
  out.mlp_us /= static_cast<double>(deps.size());
  if (plan) {
    const int plan_span = spans.begin("core.plan");
    for (const auto& [manager, workflow] : deps) {
      const core::XanaduPolicy& policy = *manager->xanadu_policy();
      const core::BranchModel& model = *policy.model(workflow);
      const core::MlpResult mlp = core::estimate_mlp(model, policy.options().mlp);
      out.plan_us += time_calls_us([&] {
        sink = core::plan_explicit(mlp, model, *policy.profiles(workflow),
                                   policy.options().jit)
                   .deployments.size();
      });
    }
    spans.end(plan_span);
    out.plan_us /= static_cast<double>(deps.size());
  }
  return out;
}

}  // namespace perfbench
