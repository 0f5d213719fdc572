#include "workload/traffic_mix.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "platform/worker_state.hpp"
#include "sim/audit.hpp"
#include "sim/sharded.hpp"

namespace xanadu::workload {

void TrafficMix::add_source(common::WorkflowId workflow, std::string name,
                            ArrivalSchedule schedule) {
  TrafficSource source;
  source.workflow = workflow;
  source.name = std::move(name);
  source.schedule = std::move(schedule);
  sources_.push_back(std::move(source));
}

std::size_t TrafficMix::total_requests() const {
  std::size_t total = 0;
  for (const TrafficSource& source : sources_) total += source.schedule.size();
  return total;
}

std::vector<MixedArrival> TrafficMix::merged() const {
  std::vector<MixedArrival> merged;
  merged.reserve(total_requests());
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    for (std::size_t i = 0; i < sources_[s].schedule.size(); ++i) {
      merged.push_back(MixedArrival{sources_[s].schedule[i], s, i});
    }
  }
  // Total order: simultaneous arrivals resolve by source registration order,
  // then arrival index, so the merge is independent of how it was built.
  std::sort(merged.begin(), merged.end(),
            [](const MixedArrival& a, const MixedArrival& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.source != b.source) return a.source < b.source;
              return a.index < b.index;
            });
  return merged;
}

TrafficMix poisson_mix(const std::vector<WeightedPoissonSpec>& specs,
                       sim::Duration mean_gap, sim::Duration horizon,
                       common::Rng& rng) {
  double total_weight = 0.0;
  for (const WeightedPoissonSpec& spec : specs) {
    if (!(spec.weight > 0.0)) {
      throw std::invalid_argument{"poisson_mix: weights must be positive"};
    }
    total_weight += spec.weight;
  }
  TrafficMix mix;
  for (const WeightedPoissonSpec& spec : specs) {
    // Thinning a Poisson process by the weight share stretches the per-source
    // mean gap by the inverse share; the superposition keeps `mean_gap`.
    const double share = spec.weight / total_weight;
    const sim::Duration source_gap =
        sim::Duration::from_millis(mean_gap.millis() / share);
    common::Rng source_rng = rng.fork();
    mix.add_source(spec.workflow, spec.name,
                   poisson(source_gap, horizon, source_rng));
  }
  return mix;
}

namespace {

// Drives the merged arrival schedule and folds every completion into the
// streaming consumer in submission-slot order.  Lives on the stack of
// run_mixed_schedule (which outlives the simulation loop); event callbacks
// capture [this, slot] -- 16 bytes, inside sim::EventFn's inline buffer.
//
// Completions arrive out of submission order (a short chain submitted late
// can finish before a long chain submitted early), but the streamed digest
// must hash rows in slot order to stay byte-identical with the batch render
// of the retained vector.  With retention on, the fold reads straight out of
// aggregate.results behind a done-bitmap frontier; with retention off, a
// small ordered reorder window buffers the out-of-order tail.
class MixDriver {
 public:
  MixDriver(core::DispatchManager& manager, const TrafficMix& mix,
            const RunOptions& options, MixedOutcome& outcome,
            metrics::StreamingTrace& stream)
      : manager_(manager),
        mix_(mix),
        options_(options),
        outcome_(outcome),
        stream_(stream),
        sim_(manager.simulator()),
        base_(sim_.now()),
        single_(mix.sources().size() == 1),
        total_(mix.total_requests()) {
    // Single-source fast path: the merged order of a lone sorted source is
    // the source order itself -- skip materializing a MixedArrival per
    // request (24 bytes x 10M on the macro path).
    if (!single_) merged_ = mix.merged();
    if (options_.retain_results) {
      outcome_.aggregate.results.resize(total_);
      done_.assign(total_, 0);
    }
  }

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t folded() const { return next_fold_; }
  [[nodiscard]] sim::Duration last_arrival() const {
    if (total_ == 0) return sim::Duration::zero();
    return single_ ? mix_.sources().front().schedule.back()
                   : merged_.back().at;
  }

  /// Sharded runs: halt `lp` (this driver's shard) right after the last
  /// request completes, so the shard's run ends on its own schedule.
  void halt_when_done(sim::LogicalProcess& lp) { halt_ = &lp; }

  void start() {
    window_ = options_.arrival_window == 0
                  ? total_
                  : std::min(options_.arrival_window, total_);
    // With arrival_window unset this preschedules every slot up front, in
    // slot order, exactly as the pre-streaming harness did -- same event
    // creation sequence, same digests.
    for (std::size_t slot = 0; slot < window_; ++slot) schedule_slot(slot);
  }

 private:
  [[nodiscard]] MixedArrival arrival(std::size_t slot) const {
    if (single_) {
      return MixedArrival{mix_.sources().front().schedule[slot], 0, slot};
    }
    return merged_[slot];
  }

  void schedule_slot(std::size_t slot) {
    sim_.schedule_at(base_ + arrival(slot).at, [this, slot] { fire(slot); },
                     "workload.arrival");
  }

  void fire(std::size_t slot) {
    // Chained mode: keep at most window_ arrival events pending.  Arrivals
    // are sorted, so slot + window_ never fires before this one.
    if (options_.arrival_window > 0 && slot + window_ < total_) {
      schedule_slot(slot + window_);
    }
    if (options_.force_cold_each_request) manager_.force_cold_start();
    const common::WorkflowId workflow =
        mix_.sources()[arrival(slot).source].workflow;
    manager_.submit(workflow,
                    [this, slot](const platform::RequestResult& result) {
                      on_complete(slot, result);
                    });
  }

  void on_complete(std::size_t slot, const platform::RequestResult& result) {
    ++completed_;
    if (completed_ == total_ && halt_ != nullptr) halt_->halt();
    if (options_.retain_results) {
      outcome_.aggregate.results[slot] = result;
      done_[slot] = 1;
      while (next_fold_ < total_ && done_[next_fold_] != 0) {
        fold(next_fold_, outcome_.aggregate.results[next_fold_]);
        ++next_fold_;
      }
    } else {
      window_buffer_.emplace(slot, result);
      while (!window_buffer_.empty() &&
             window_buffer_.begin()->first == next_fold_) {
        fold(next_fold_, window_buffer_.begin()->second);
        window_buffer_.erase(window_buffer_.begin());
        ++next_fold_;
      }
    }
  }

  void fold(std::size_t slot, const platform::RequestResult& result) {
    const std::size_t source = arrival(slot).source;
    stream_.consume(source, result);
    if (options_.retain_results) {
      // Folds run in slot order, so per-source vectors fill in each source's
      // own arrival order -- the merged order restricted to one source.
      outcome_.per_source[source].results.push_back(result);
    }
  }

  core::DispatchManager& manager_;
  const TrafficMix& mix_;
  const RunOptions& options_;
  MixedOutcome& outcome_;
  metrics::StreamingTrace& stream_;
  sim::Simulator& sim_;
  sim::TimePoint base_;
  bool single_;
  std::size_t total_;
  std::size_t window_ = 0;
  std::vector<MixedArrival> merged_;
  /// Retention on: which slots hold a result (fold frontier scan).
  std::vector<std::uint8_t> done_;
  /// Retention off: out-of-order completions awaiting their fold turn.
  std::map<std::size_t, platform::RequestResult> window_buffer_;
  std::size_t next_fold_ = 0;
  std::size_t completed_ = 0;
  sim::LogicalProcess* halt_ = nullptr;
};

}  // namespace

MixedOutcome run_mixed_schedule(core::DispatchManager& manager,
                                const TrafficMix& mix,
                                const RunOptions& options) {
  for (const TrafficSource& source : mix.sources()) {
    for (std::size_t i = 1; i < source.schedule.size(); ++i) {
      if (source.schedule[i] < source.schedule[i - 1]) {
        throw std::invalid_argument{
            "run_mixed_schedule: every source schedule must be sorted"};
      }
    }
  }

  MixedOutcome outcome;
  outcome.per_source.resize(mix.sources().size());
  outcome.source_names.reserve(mix.sources().size());
  for (const TrafficSource& source : mix.sources()) {
    outcome.source_names.push_back(source.name);
  }

  metrics::StreamingTrace stream(options.stream);
  for (const TrafficSource& source : mix.sources()) {
    stream.add_source(manager.engine().dag(source.workflow), source.name);
  }

  const cluster::ResourceLedger before = manager.ledger();
  sim::Simulator& sim = manager.simulator();
  const sim::TimePoint base = sim.now();

  MixDriver driver(manager, mix, options, outcome, stream);
  driver.start();

  if (options.drain_after_last && !options.allow_incomplete) {
    sim.run();
  } else {
    // Run until every request has completed, without waiting for keep-alive
    // reclamation events.  With allow_incomplete the loop is additionally
    // bounded in virtual time (see RunOptions::stall_horizon).
    const sim::TimePoint horizon =
        base + driver.last_arrival() + options.stall_horizon;
    while (driver.completed() < driver.total() && sim.pending() > 0) {
      if (options.allow_incomplete && sim.now() >= horizon) break;
      // Stride by 1 virtual second, clamped to the horizon so stranded
      // requests are failed *at* the stall horizon, never up to a full
      // stride past it.
      sim::TimePoint stride = sim.now() + sim::Duration::from_seconds(1);
      if (options.allow_incomplete && stride > horizon) stride = horizon;
      sim.run_until(stride);
    }
  }
  if (driver.completed() != driver.total() && options.allow_incomplete) {
    // Stranded by an injected fault with recovery disabled: fail the
    // leftovers cleanly so every slot holds a result (failed or completed).
    manager.engine().fail_all_pending_requests("stranded by injected fault");
  }
  if (driver.completed() != driver.total()) {
    throw std::logic_error{"run_mixed_schedule: not all requests completed"};
  }
  XANADU_INVARIANT(driver.folded() == driver.total(),
                   "run_mixed_schedule: streaming fold did not drain");
  if (options.drain_after_last && options.allow_incomplete) sim.run();
  if (options.flush_at_end) manager.force_cold_start();

  stream.finish();
  RunOutcome& aggregate = outcome.aggregate;
  aggregate.ledger_delta = manager.ledger() - before;
  aggregate.stats = stream.stats();
  aggregate.histogram = stream.histogram();
  aggregate.trace_digest = stream.digest();
  aggregate.streamed = true;
  // The cluster (and thus the ledger) is shared across sources, so only the
  // aggregate carries a ledger delta; per-source lanes carry stats + digest.
  for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
    outcome.per_source[s].stats = stream.source_stats(s);
    outcome.per_source[s].trace_digest = stream.source_digest(s);
    outcome.per_source[s].streamed = true;
  }
  return outcome;
}

namespace {

// FNV-1a fold of one 64-bit value, little-endian bytes -- the same hash
// family metrics::trace_digest uses, applied to combine per-shard digests in
// shard order.
std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace

ShardedOutcome run_sharded_mix(const std::vector<ShardedSource>& shards,
                               const RunOptions& options) {
  if (shards.empty()) {
    throw std::invalid_argument{"run_sharded_mix: no shards"};
  }
  if (options.threads == 0) {
    throw std::invalid_argument{"run_sharded_mix: threads must be >= 1"};
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].manager == nullptr) {
      throw std::invalid_argument{"run_sharded_mix: null manager"};
    }
    for (std::size_t j = i + 1; j < shards.size(); ++j) {
      if (shards[i].manager == shards[j].manager) {
        throw std::invalid_argument{
            "run_sharded_mix: every shard needs its own deployment"};
      }
    }
    for (std::size_t a = 1; a < shards[i].schedule.size(); ++a) {
      if (shards[i].schedule[a] < shards[i].schedule[a - 1]) {
        throw std::invalid_argument{
            "run_sharded_mix: every shard schedule must be sorted"};
      }
    }
  }

  bool any_bus = false;
  for (const ShardedSource& shard : shards) {
    any_bus = any_bus ||
              shard.manager->engine().calibration().control_bus.enabled;
  }
  sim::ShardedSimulator driver;

  std::vector<sim::LogicalProcess*> lps;
  lps.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    lps.push_back(&driver.add_shard(shards[i].manager->simulator()));
    shards[i].manager->cluster().assign_shard(lps.back()->shard());
  }

  // Fleet-control shard: one WorkerStateTracker per tenant, fed over bridged
  // "workers" topics (the paper's Kafka-backed worker state management,
  // stretched across shards).  Only materialised when some deployment runs a
  // control bus.  Each bridge declares its tenant -> fleet channel, so the
  // fleet shard trails the tenants by one bus latency while tenant shards,
  // with no inbound channel, run barrier-free.
  sim::Simulator fleet_sim;
  std::unique_ptr<platform::MessageBus> fleet_bus;
  std::vector<std::unique_ptr<platform::WorkerStateTracker>> fleet_view(
      shards.size());
  if (any_bus) {
    sim::LogicalProcess& fleet_lp = driver.add_shard(fleet_sim);
    fleet_bus = std::make_unique<platform::MessageBus>(
        fleet_sim, platform::MessageBus::Options{}, common::Rng{0x5eedf1ee7});
    fleet_bus->attach_shard(fleet_lp);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      platform::MessageBus* bus = shards[i].manager->engine().control_bus();
      if (bus == nullptr) continue;
      bus->attach_shard(*lps[i]);
      const std::string fleet_topic =
          "fleet.workers." + std::to_string(i);
      bus->bridge_topic(
          platform::kWorkerStateTopic, *fleet_bus, fleet_topic,
          shards[i].manager->engine().calibration().control_bus.latency);
      fleet_view[i] =
          std::make_unique<platform::WorkerStateTracker>(*fleet_bus,
                                                         fleet_topic);
    }
  }

  ShardedOutcome outcome;
  MixedOutcome& mixed = outcome.mixed;
  mixed.per_source.resize(shards.size());
  mixed.source_names.reserve(shards.size());
  for (const ShardedSource& shard : shards) {
    mixed.source_names.push_back(shard.name);
  }

  // Per-shard harness: each shard reuses the MixDriver with a single-source
  // mix on its own simulator and its own streaming consumer, so the
  // per-shard fold order (and digest) is exactly the unsharded single-tenant
  // fold order.
  std::vector<TrafficMix> mixes(shards.size());
  std::vector<std::unique_ptr<MixedOutcome>> shard_mixed;
  std::vector<std::unique_ptr<metrics::StreamingTrace>> streams;
  std::vector<std::unique_ptr<MixDriver>> drivers;
  std::vector<cluster::ResourceLedger> ledgers_before;
  std::vector<sim::TimePoint> bases;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    core::DispatchManager& manager = *shards[i].manager;
    mixes[i].add_source(shards[i].workflow, shards[i].name,
                        shards[i].schedule);
    shard_mixed.push_back(std::make_unique<MixedOutcome>());
    shard_mixed.back()->per_source.resize(1);
    streams.push_back(
        std::make_unique<metrics::StreamingTrace>(options.stream));
    streams.back()->add_source(manager.engine().dag(shards[i].workflow),
                               shards[i].name);
    ledgers_before.push_back(manager.ledger());
    bases.push_back(manager.simulator().now());
    drivers.push_back(std::make_unique<MixDriver>(
        manager, mixes[i], options, *shard_mixed[i], *streams[i]));
  }
  for (const std::unique_ptr<MixDriver>& mix_driver : drivers) {
    mix_driver->start();
  }

  // Per-shard stop: each tenant halts right after its own last completion
  // and, under allow_incomplete, at its own stall horizon (where
  // run_mixed_schedule fails its leftovers too), so a tenant's lane never
  // depends on which other tenants share the run.
  if (!(options.drain_after_last && !options.allow_incomplete)) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      drivers[i]->halt_when_done(*lps[i]);
      if (options.allow_incomplete) {
        lps[i]->stop_at(bases[i] + drivers[i]->last_arrival() +
                        options.stall_horizon);
      }
      if (drivers[i]->total() == 0) lps[i]->stop_at(bases[i]);
    }
  }
  outcome.events_fired = driver.run(options.threads);

  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (drivers[i]->completed() != drivers[i]->total() &&
        options.allow_incomplete) {
      // The shard's clock rests at its stall horizon: the leftovers fail
      // at exactly that time.
      shards[i].manager->engine().fail_all_pending_requests(
          "stranded by injected fault");
    }
    if (drivers[i]->completed() != drivers[i]->total()) {
      throw std::logic_error{"run_sharded_mix: not all requests completed"};
    }
    XANADU_INVARIANT(drivers[i]->folded() == drivers[i]->total(),
                     "run_sharded_mix: streaming fold did not drain");
  }
  if (options.drain_after_last && options.allow_incomplete) {
    outcome.events_fired += driver.run(options.threads);
  }
  if (options.flush_at_end) {
    for (const ShardedSource& shard : shards) {
      shard.manager->force_cold_start();
    }
  }
  if (any_bus) {
    // Telemetry settle: flush/teardown published Dead events whose bridged
    // copies are still in flight.  Each tenant runs two of its own bus
    // latencies past its own clock -- bounded (never run-to-empty:
    // recurring fault events could recur forever) and independent of the
    // other tenants -- and the fleet shard, which has no events of its own,
    // drains every message the tenants sent.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const platform::ControlBusOptions& bus =
          shards[i].manager->engine().calibration().control_bus;
      const sim::Duration slack =
          bus.enabled ? bus.latency + bus.latency : sim::Duration::zero();
      lps[i]->stop_at(shards[i].manager->simulator().now() + slack);
    }
    outcome.events_fired += driver.run(options.threads);
  }

  // Per-shard outcomes (shard order), then deterministic aggregation.
  RunOutcome& aggregate = mixed.aggregate;
  aggregate.streamed = true;
  std::uint64_t trace_fold = kFnvBasis;
  std::uint64_t state_fold = kFnvBasis;
  std::uint64_t fleet_fold = kFnvBasis;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    streams[i]->finish();
    RunOutcome& lane = mixed.per_source[i];
    lane = std::move(shard_mixed[i]->aggregate);
    lane.ledger_delta = shards[i].manager->ledger() - ledgers_before[i];
    lane.stats = streams[i]->stats();
    lane.histogram = streams[i]->histogram();
    lane.trace_digest = streams[i]->digest();
    lane.streamed = true;

    if (i == 0) {
      aggregate.stats = lane.stats;
      aggregate.histogram = lane.histogram;
    } else {
      aggregate.stats.merge(lane.stats);
      aggregate.histogram.merge(lane.histogram);
    }
    aggregate.ledger_delta += lane.ledger_delta;
    trace_fold = fnv_fold(trace_fold, static_cast<std::uint64_t>(i));
    trace_fold = fnv_fold(trace_fold, lane.trace_digest);
    state_fold = fnv_fold(state_fold, static_cast<std::uint64_t>(i));
    state_fold =
        fnv_fold(state_fold, shards[i].manager->engine().state_digest());

    if (fleet_view[i] != nullptr) {
      const platform::WorkerStateTracker& tracker = *fleet_view[i];
      outcome.fleet_events += tracker.events_seen();
      fleet_fold = fnv_fold(fleet_fold, static_cast<std::uint64_t>(i));
      fleet_fold = fnv_fold(fleet_fold, tracker.live_count());
      fleet_fold = fnv_fold(
          fleet_fold, tracker.count(platform::WorkerEventKind::Provisioning));
      fleet_fold =
          fnv_fold(fleet_fold, tracker.count(platform::WorkerEventKind::Busy));
      fleet_fold =
          fnv_fold(fleet_fold, tracker.count(platform::WorkerEventKind::Idle));
      fleet_fold = fnv_fold(fleet_fold, tracker.events_seen());
    }
  }
  aggregate.trace_digest = trace_fold;
  outcome.state_digest = state_fold;
  outcome.fleet_digest = fleet_fold;
  outcome.windows = driver.rounds();
  outcome.cross_shard_messages = driver.messages_delivered();
  return outcome;
}

}  // namespace xanadu::workload
