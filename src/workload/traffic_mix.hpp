#pragma once

// Multi-tenant traffic: N deployed workflows, each with its own arrival
// process, merged into one deterministic interleaved schedule (the paper's
// Dispatch Manager serves many chains concurrently -- Section 4, Figure 11).
//
// A TrafficMix is a list of TrafficSources; merged() produces the global
// submission order, totally ordered by (arrival time, source index, arrival
// index) so replaying the same mix is bit-identical regardless of how the
// sources were generated.  run_mixed_schedule() drives a DispatchManager
// with the merged schedule and returns per-source RunOutcome breakdowns on
// top of the aggregate; run_schedule() is the single-tenant special case and
// delegates here.

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"

namespace xanadu::workload {

/// One deployed workflow plus its (sorted) arrival offsets.
struct TrafficSource {
  common::WorkflowId workflow{};
  /// Display name for reports ("ecommerce", "image-pipeline", ...).
  std::string name;
  ArrivalSchedule schedule;
};

/// One entry of the merged schedule: which source's request arrives when.
struct MixedArrival {
  sim::Duration at = sim::Duration::zero();
  /// Index into TrafficMix::sources().
  std::size_t source = 0;
  /// Per-source arrival index (position within the source's schedule).
  std::size_t index = 0;
};

class TrafficMix {
 public:
  /// Appends a source.  Schedules must be sorted (validated at run time).
  void add_source(common::WorkflowId workflow, std::string name,
                  ArrivalSchedule schedule);

  [[nodiscard]] const std::vector<TrafficSource>& sources() const {
    return sources_;
  }
  [[nodiscard]] std::size_t total_requests() const;

  /// The deterministic global submission order: every source's arrivals,
  /// totally ordered by (at, source index, arrival index).  Ties between
  /// sources resolve in add_source order.
  [[nodiscard]] std::vector<MixedArrival> merged() const;

 private:
  std::vector<TrafficSource> sources_;
};

/// Weighted share of a Poisson mix.
struct WeightedPoissonSpec {
  common::WorkflowId workflow{};
  std::string name;
  /// Relative share of the aggregate arrival rate; must be positive.
  double weight = 1.0;
};

/// Builds a mix whose aggregate arrival process is Poisson with `mean_gap`,
/// split across the specs by weight (each source is an independent Poisson
/// thinning: its own mean gap is mean_gap * total_weight / weight).  Each
/// source draws from a fork of `rng`, in spec order, so adding a source
/// never perturbs the arrival times of the sources before it.
[[nodiscard]] TrafficMix poisson_mix(const std::vector<WeightedPoissonSpec>& specs,
                                     sim::Duration mean_gap,
                                     sim::Duration horizon, common::Rng& rng);

/// Result of a mixed run: the aggregate outcome over every request, plus one
/// RunOutcome per source (results in that source's arrival order).  The
/// cluster is shared, so per-source ledger deltas are not separable: only
/// aggregate.ledger_delta is populated; per_source[i].ledger_delta stays
/// default-constructed.
struct MixedOutcome {
  RunOutcome aggregate;
  std::vector<RunOutcome> per_source;
  /// Source display names, index-aligned with per_source.
  std::vector<std::string> source_names;
};

/// Submits every arrival of the mix (relative to the current virtual time)
/// and runs the simulation until all requests complete, under the same
/// RunOptions semantics as run_schedule (force-cold, drain, flush,
/// allow_incomplete + stall_horizon past the last merged arrival).  The
/// mix's schedules are read in place, and the simulator queues one arrival
/// at a time.  If the run throws, its unfired arrivals are dropped and the
/// engine's requests still in flight are failed before the exception
/// leaves, so the simulator can be drained and reused afterwards.
[[nodiscard]] MixedOutcome run_mixed_schedule(core::DispatchManager& manager,
                                              const TrafficMix& mix,
                                              const RunOptions& options = {});

// -- Sharded multi-tenant runs (conservative parallel drain) -----------------

/// One shard of a sharded run: a complete deployment -- its own simulator,
/// cluster and engine, i.e. a core::DispatchManager -- plus that tenant's
/// arrival schedule.  Shards share no mutable state; the only cross-shard
/// traffic is worker-lifecycle telemetry bridged over the control bus into
/// the fleet view (when the deployments enable the bus).
struct ShardedSource {
  core::DispatchManager* manager = nullptr;
  common::WorkflowId workflow{};
  std::string name;
  ArrivalSchedule schedule;
};

/// Result of a sharded run.  `mixed.per_source[i]` is shard i's complete
/// RunOutcome; clusters are per-shard, so -- unlike run_mixed_schedule --
/// every lane carries its own ledger delta.  `mixed.aggregate` merges the
/// per-shard stats/histograms in shard order and folds the per-shard trace
/// digests into one combined digest.  That digest is a *sharded-run* value:
/// identical for identical (shards, seeds, options) at any thread count, but
/// not comparable with an unsharded run over the same requests (requests
/// interleave differently by construction -- independent clusters).
struct ShardedOutcome {
  MixedOutcome mixed;
  /// Worker lifecycle events the fleet view consumed over bridged topics
  /// (0 when no shard runs a control bus).
  std::uint64_t fleet_events = 0;
  /// Digest over the fleet view's final per-shard worker-state counts.
  std::uint64_t fleet_digest = 0;
  /// Fold of each shard engine's state_digest, in shard order.
  std::uint64_t state_digest = 0;
  /// Rounds the driver executed (one barrier each).  Named `windows` for the
  /// per-request `sim.windows_per_request` counter that reads it.
  std::uint64_t windows = 0;
  /// Messages merged through the cross-shard mailbox.
  std::uint64_t cross_shard_messages = 0;
  /// Events fired across all shards during the drive.
  std::size_t events_fired = 0;
};

/// Drives every shard's schedule through one sim::ShardedSimulator using
/// RunOptions::threads OS threads.  Each shard's manager must be a distinct
/// deployment; schedules must be sorted.  Deployments with the control bus
/// enabled get their "workers" topic bridged to a fleet-control shard
/// hosting one platform::WorkerStateTracker per tenant (the paper's
/// Kafka-backed worker state management, stretched across shards).  Each
/// tenant shard stops right after its own last completion (under
/// allow_incomplete, at its own stall horizon, where its leftovers fail), so
/// a tenant's lane -- trace digest, ledger delta, engine state -- is the
/// same whether it runs alone or beside other tenants.  All results, digests
/// and stats are byte-identical for any thread count;
/// tests/sharded_determinism_test.cpp pins both properties.
[[nodiscard]] ShardedOutcome run_sharded_mix(
    const std::vector<ShardedSource>& shards, const RunOptions& options = {});

}  // namespace xanadu::workload
