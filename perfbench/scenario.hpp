#pragma once

// The benchmark's three workloads: how each one is deployed (set-up), what
// traffic it replays, and the call into the public `workload` runner that
// replays it.  Everything here is built from the seed alone; the simulator
// receives only the generated DAGs and arrival schedules.

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "core/dispatch_manager.hpp"
#include "spans.hpp"
#include "workload/runner.hpp"
#include "workload/traffic_mix.hpp"

namespace perfbench {

using namespace xanadu;

enum class Workload { ChainJit, MixSpec, ShardedJit };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// A deployed workload, ready for exactly one replay.  Chain and mix replay
/// `mix` through the single manager; the sharded workload replays `shards`,
/// one manager per tenant.
struct Scenario {
  Workload workload = Workload::ChainJit;
  std::vector<std::unique_ptr<core::DispatchManager>> managers;
  /// Deployed workflows in tenant order (chain: 1, mix: 3, sharded: 1 per
  /// manager).
  std::vector<common::WorkflowId> workflows;
  /// Mean C_D of each workflow's fully cold training trials: every function
  /// cold-started in turn, the most an unqueued request can wait.
  std::vector<double> cold_cd_ms;
  workload::TrafficMix mix;
  std::vector<workload::ShardedSource> shards;

  [[nodiscard]] std::size_t requests() const;
  [[nodiscard]] std::size_t tenants() const { return workflows.size(); }
};

/// Constructs the manager(s), deploys the DAGs and trains the profiles: the
/// timed set-up.  Records setup.deploy / setup.train under `parent` when
/// `spans` is given.
[[nodiscard]] Scenario set_up(Workload workload, std::uint64_t seed,
                              SpanLog* spans = nullptr, int parent = -1);

/// Generates the arrival schedules (excluded from set-up time).  `scale`
/// multiplies the workload's request volume (1 for measured replays).
void make_arrivals(Scenario& scenario, std::uint64_t seed, double scale = 1.0);

/// Replay options: C_D histogram range, threads, retention.
[[nodiscard]] workload::RunOptions run_options(bool retain_results,
                                               unsigned threads);

/// Share of the workload's volume replayed by the timed replays behind
/// `requests_per_s`, so that a run takes its median over many replays, each
/// paired with the calibration loop timed right after it; the full volume is
/// replayed once for the modelled metrics.
[[nodiscard]] double timing_scale(Workload workload);

/// Thread count of a workload's replay: min(4, nproc) for the sharded
/// workload, 1 otherwise.
[[nodiscard]] unsigned replay_threads(Workload workload);

/// Outcome of one replay.  `mixed.per_source` holds one lane per tenant.
struct Replay {
  double wall_s = 0.0;
  workload::MixedOutcome mixed;
  /// Sharded workload only (zero otherwise).
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t sharded_events = 0;
};

/// The timed replay: one call into run_schedule / run_mixed_schedule /
/// run_sharded_mix.
[[nodiscard]] Replay replay(Scenario& scenario,
                            const workload::RunOptions& options);

}  // namespace perfbench
