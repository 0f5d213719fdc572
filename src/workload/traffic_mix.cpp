#include "workload/traffic_mix.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
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

namespace {

/// One source as a run reads it: the caller's schedule, in place.
struct SourceView {
  common::WorkflowId workflow{};
  std::string_view name;
  const ArrivalSchedule* schedule = nullptr;
};

std::vector<MixedArrival> merge_order(const std::vector<SourceView>& sources) {
  std::size_t total = 0;
  for (const SourceView& source : sources) total += source.schedule->size();
  std::vector<MixedArrival> merged;
  merged.reserve(total);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const ArrivalSchedule& schedule = *sources[s].schedule;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      merged.push_back(MixedArrival{schedule[i], s, i});
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

std::vector<SourceView> views_of(const TrafficMix& mix) {
  std::vector<SourceView> views;
  views.reserve(mix.sources().size());
  for (const TrafficSource& source : mix.sources()) {
    views.push_back(SourceView{source.workflow, source.name, &source.schedule});
  }
  return views;
}

}  // namespace

std::vector<MixedArrival> TrafficMix::merged() const {
  return merge_order(views_of(*this));
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
// streaming consumer in submission-slot order.  The driver is the
// simulator's arrival stream: slot i fires at base + its offset, with the
// key prescheduling every slot in order would give it, while only the next
// slot is queued.  Lives on the stack of run_sources (which outlives the
// simulation loop); completion callbacks capture [this, slot] -- 16 bytes,
// inside std::function's inline buffer.
//
// Completions arrive out of submission order (a short chain submitted late
// can finish before a long chain submitted early), but the digest must hash
// rows in slot order to stay byte-identical with the batch render of the
// retained vector.  One reorder window serves every run: the completion of
// the next slot to fold folds straight from the engine's reference, and a
// later slot parks in an ordered map until every earlier slot has folded,
// then is moved out on its turn.  Retaining results only adds a sink to
// that fold, which appends each folded result to the caller's vectors.
class MixDriver final : public sim::ArrivalStream {
 public:
  /// With RunOptions::retain_results, every folded result is appended to
  /// `aggregate.results` and, when `lanes` is given, to its source's lane;
  /// both are reserved here.
  MixDriver(core::DispatchManager& manager, std::vector<SourceView> sources,
            const RunOptions& options, metrics::StreamingTrace& stream,
            RunOutcome& aggregate, std::vector<RunOutcome>* lanes)
      : manager_(manager),
        sources_(std::move(sources)),
        options_(options),
        stream_(stream),
        sim_(manager.simulator()),
        base_(sim_.now()),
        single_(sources_.size() == 1) {
    // Single-source fast path: the merged order of a lone sorted source is
    // the source order itself -- skip materializing a MixedArrival per
    // request (24 bytes x 10M on the macro path).
    if (single_) {
      total_ = sources_.front().schedule->size();
    } else {
      merged_ = merge_order(sources_);
      total_ = merged_.size();
    }
    if (options_.retain_results) {
      retained_ = &aggregate.results;
      retained_->reserve(total_);
      lanes_ = lanes;
      for (std::size_t s = 0; lanes_ != nullptr && s < sources_.size(); ++s) {
        (*lanes_)[s].results.reserve(sources_[s].schedule->size());
      }
    }
  }

  // Every exit path, a throw included: no arrival or completion callback
  // may reach a dead driver.  Unfired arrivals are dropped, and requests
  // still in flight fail now, which also turns their queued engine events
  // into no-ops; their results are discarded unfolded.  Should failing
  // them throw, the implicit noexcept terminates the program rather than
  // leave callbacks dangling.
  ~MixDriver() {
    sim_.detach_arrivals(*this);
    if (completed_ != total_) {
      abandoned_ = true;
      manager_.engine().fail_all_pending_requests("run abandoned");
    }
  }

  MixDriver(const MixDriver&) = delete;
  MixDriver& operator=(const MixDriver&) = delete;

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t folded() const { return next_fold_; }
  [[nodiscard]] sim::Duration last_arrival() const {
    return total_ == 0 ? sim::Duration::zero() : offset(total_ - 1);
  }

  void start() { sim_.attach_arrivals(*this, total_, "workload.arrival"); }

  [[nodiscard]] sim::TimePoint arrival_time(std::size_t slot) const override {
    return base_ + offset(slot);
  }

  void fire_arrival(std::size_t slot) override {
    if (options_.force_cold_each_request) manager_.force_cold_start();
    manager_.submit(sources_[source_of(slot)].workflow,
                    [this, slot](const platform::RequestResult& result) {
                      on_complete(slot, result);
                    });
  }

 private:
  [[nodiscard]] sim::Duration offset(std::size_t slot) const {
    return single_ ? (*sources_.front().schedule)[slot] : merged_[slot].at;
  }
  [[nodiscard]] std::size_t source_of(std::size_t slot) const {
    return single_ ? 0 : merged_[slot].source;
  }

  void on_complete(std::size_t slot, const platform::RequestResult& result) {
    if (abandoned_) return;
    ++completed_;
    // The last completion ends a run_before() drain, which is how a sharded
    // run stops each shard on its own schedule; run() and run_until()
    // ignore the interrupt.
    if (completed_ == total_) sim_.interrupt();
    if (slot != next_fold_) {
      window_.emplace(slot, result);
      return;
    }
    fold(result);
    while (!window_.empty() && window_.begin()->first == next_fold_) {
      fold(std::move(window_.begin()->second));
      window_.erase(window_.begin());
    }
  }

  /// Folds the result of slot next_fold_ and hands it to the retention sink
  /// (copied from the engine's reference, moved out of the window).  Folds
  /// run in slot order, so each lane fills in its source's own arrival order
  /// -- the merged order restricted to one source.
  template <typename Result>
  void fold(Result&& result) {
    const std::size_t source = source_of(next_fold_++);
    stream_.consume(source, result);
    if (retained_ == nullptr) return;
    if (lanes_ != nullptr) (*lanes_)[source].results.push_back(result);
    retained_->push_back(std::forward<Result>(result));
  }

  core::DispatchManager& manager_;
  std::vector<SourceView> sources_;
  const RunOptions& options_;
  metrics::StreamingTrace& stream_;
  sim::Simulator& sim_;
  sim::TimePoint base_;
  bool single_;
  std::size_t total_ = 0;
  std::vector<MixedArrival> merged_;
  /// Completions of slots past next_fold_, awaiting their fold turn.
  std::map<std::size_t, platform::RequestResult> window_;
  std::size_t next_fold_ = 0;
  std::size_t completed_ = 0;
  /// Retention sink; null with retain_results off.
  std::vector<platform::RequestResult>* retained_ = nullptr;
  /// Per-source retention lanes; null unless the caller asked for them.
  std::vector<RunOutcome>* lanes_ = nullptr;
  /// Set while the destructor fails the requests still in flight.
  bool abandoned_ = false;
};

/// The body shared by run_schedule and run_mixed_schedule: `sources` are
/// sorted and read in place.  Every per_source lane gets its stats and
/// digest; with `retain_lanes` the lanes also retain their results.
MixedOutcome run_sources(core::DispatchManager& manager,
                         std::vector<SourceView> sources,
                         const RunOptions& options, bool retain_lanes) {
  MixedOutcome outcome;
  outcome.per_source.resize(sources.size());
  outcome.source_names.reserve(sources.size());
  metrics::StreamingTrace stream(options.stream);
  for (const SourceView& source : sources) {
    outcome.source_names.emplace_back(source.name);
    stream.add_source(manager.engine().dag(source.workflow), source.name);
  }

  const cluster::ResourceLedger before = manager.ledger();
  sim::Simulator& sim = manager.simulator();
  const sim::TimePoint base = sim.now();

  MixDriver driver(manager, std::move(sources), options, stream,
                   outcome.aggregate,
                   retain_lanes ? &outcome.per_source : nullptr);
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

  RunOutcome& aggregate = outcome.aggregate;
  aggregate.ledger_delta = manager.ledger() - before;
  aggregate.stats = stream.stats();
  aggregate.histogram = stream.histogram();
  aggregate.trace_digest = stream.digest();
  // The cluster (and thus the ledger) is shared across sources, so only the
  // aggregate carries a ledger delta; per-source lanes carry stats + digest.
  for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
    outcome.per_source[s].stats = stream.source_stats(s);
    outcome.per_source[s].trace_digest = stream.source_digest(s);
  }
  return outcome;
}

/// One shard's whole lifecycle in a sharded run, on whichever thread the
/// fork-join hands it to.  It touches only this shard's deployment, its
/// stream and its lane, so no other shard can move anything it does.  Fills
/// `lane` (ledger delta, stats, histogram, digest; retained results when
/// asked) and returns the events fired.
std::size_t run_shard(const ShardedSource& shard, const RunOptions& options,
                      RunOutcome& lane) {
  core::DispatchManager& manager = *shard.manager;
  sim::Simulator& sim = manager.simulator();
  // The MixDriver with its one source on its own stream: the per-shard fold
  // order (and digest) is exactly the unsharded single-tenant fold order,
  // and retained results go straight into the lane.
  metrics::StreamingTrace stream(options.stream);
  stream.add_source(manager.engine().dag(shard.workflow), shard.name);
  const cluster::ResourceLedger before = manager.ledger();
  const sim::TimePoint base = sim.now();
  MixDriver driver(manager, {SourceView{shard.workflow, shard.name,
                                        &shard.schedule}},
                   options, stream, lane, nullptr);
  driver.start();

  // 1. Drive.  The shard stops right after its own last completion and,
  // under allow_incomplete, at its own stall horizon (where
  // run_mixed_schedule fails its leftovers too), so its lane never depends
  // on which other shards share the run.
  std::size_t fired = 0;
  if (options.drain_after_last && !options.allow_incomplete) {
    fired += sim.run();
  } else if (options.allow_incomplete || driver.total() == 0) {
    const sim::TimePoint horizon =
        driver.total() == 0
            ? base
            : base + driver.last_arrival() + options.stall_horizon;
    // Events at the horizon fire; a stranded shard's clock then rests
    // there, and its leftovers fail at exactly that time.
    fired += sim.run_before(horizon + sim::Duration{1});
    if (driver.completed() != driver.total()) fired += sim.run_until(horizon);
  } else {
    fired += sim.run_before(
        sim::TimePoint{std::numeric_limits<std::int64_t>::max()});
  }
  // 2. Fail the leftovers.
  if (driver.completed() != driver.total() && options.allow_incomplete) {
    manager.engine().fail_all_pending_requests("stranded by injected fault");
  }
  if (driver.completed() != driver.total()) {
    throw std::logic_error{"run_sharded_mix: not all requests completed"};
  }
  XANADU_INVARIANT(driver.folded() == driver.total(),
                   "run_sharded_mix: streaming fold did not drain");
  // 3. Drain.  4. Flush.
  if (options.drain_after_last && options.allow_incomplete) fired += sim.run();
  if (options.flush_at_end) manager.force_cold_start();
  // 5. Telemetry settle: the flush published Dead events that are still in
  // flight.  Two of this shard's own bus latencies past its own clock --
  // bounded (never run-to-empty: recurring fault events could recur
  // forever) and independent of the other shards.
  if (manager.engine().control_bus() != nullptr) {
    const sim::Duration latency =
        manager.engine().calibration().control_bus.latency;
    fired += sim.run_until(sim.now() + latency + latency);
  }

  lane.ledger_delta = manager.ledger() - before;
  lane.stats = stream.stats();
  lane.histogram = stream.histogram();
  lane.trace_digest = stream.digest();
  return fired;
}

}  // namespace

RunOutcome run_schedule(core::DispatchManager& manager,
                        common::WorkflowId workflow,
                        const ArrivalSchedule& schedule,
                        const RunOptions& options) {
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i] < schedule[i - 1]) {
      throw std::invalid_argument{"run_schedule: schedule must be sorted"};
    }
  }
  // Single-tenant traffic is the one-source special case of a mix: the
  // merged order of a lone sorted source is the source order itself, so the
  // event-creation sequence (and hence every trace digest) is unchanged.
  // Only the aggregate is returned, so the lone lane retains nothing.
  MixedOutcome outcome =
      run_sources(manager, {SourceView{workflow, "", &schedule}}, options,
                  /*retain_lanes=*/false);
  return std::move(outcome.aggregate);
}

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
  return run_sources(manager, views_of(mix), options, /*retain_lanes=*/true);
}

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

  // Fleet view: one WorkerStateTracker per tenant, subscribed to the
  // "workers" topic of that tenant's own control bus (the paper's
  // Kafka-backed worker state management).  Like any subscriber it lags by
  // the bus latency and sees the bus's faults.
  std::vector<std::unique_ptr<platform::WorkerStateTracker>> fleet_view(
      shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (platform::MessageBus* bus =
            shards[i].manager->engine().control_bus()) {
      fleet_view[i] = std::make_unique<platform::WorkerStateTracker>(*bus);
    }
  }

  ShardedOutcome outcome;
  MixedOutcome& mixed = outcome.mixed;
  mixed.per_source.resize(shards.size());
  mixed.source_names.reserve(shards.size());
  for (const ShardedSource& shard : shards) {
    mixed.source_names.push_back(shard.name);
  }
  std::vector<std::size_t> fired(shards.size(), 0);
  sim::fork_join(shards.size(), options.threads, [&](std::size_t i) {
    fired[i] = run_shard(shards[i], options, mixed.per_source[i]);
  });

  // Deterministic aggregation, in shard order.
  RunOutcome& aggregate = mixed.aggregate;
  std::uint64_t trace_fold = common::kFnvOffsetBasis;
  std::uint64_t state_fold = common::kFnvOffsetBasis;
  std::uint64_t fleet_fold = common::kFnvOffsetBasis;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const RunOutcome& lane = mixed.per_source[i];
    outcome.events_fired += fired[i];
    if (i == 0) {
      aggregate.stats = lane.stats;
      aggregate.histogram = lane.histogram;
    } else {
      aggregate.stats.merge(lane.stats);
      aggregate.histogram.merge(lane.histogram);
    }
    aggregate.ledger_delta += lane.ledger_delta;
    trace_fold = common::fnv1a_u64(i, trace_fold);
    trace_fold = common::fnv1a_u64(lane.trace_digest, trace_fold);
    state_fold = common::fnv1a_u64(i, state_fold);
    state_fold = common::fnv1a_u64(
        shards[i].manager->engine().state_digest(), state_fold);

    if (fleet_view[i] != nullptr) {
      const platform::WorkerStateTracker& tracker = *fleet_view[i];
      outcome.fleet_events += tracker.events_seen();
      fleet_fold = common::fnv1a_u64(i, fleet_fold);
      fleet_fold = common::fnv1a_u64(tracker.live_count(), fleet_fold);
      fleet_fold = common::fnv1a_u64(
          tracker.count(platform::WorkerEventKind::Provisioning), fleet_fold);
      fleet_fold = common::fnv1a_u64(
          tracker.count(platform::WorkerEventKind::Busy), fleet_fold);
      fleet_fold = common::fnv1a_u64(
          tracker.count(platform::WorkerEventKind::Idle), fleet_fold);
      fleet_fold = common::fnv1a_u64(tracker.events_seen(), fleet_fold);
    }
  }
  aggregate.trace_digest = trace_fold;
  outcome.state_digest = state_fold;
  outcome.fleet_digest = fleet_fold;
  return outcome;
}

}  // namespace xanadu::workload
