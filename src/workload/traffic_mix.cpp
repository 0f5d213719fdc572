#include "workload/traffic_mix.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
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

/// The one place a schedule is checked: sorted, and starting no earlier than
/// the run (so no arrival lies in the past).  Each runner checks all its
/// schedules before it runs anything, so a bad schedule leaves every
/// deployment as it was.
void check_schedule(const ArrivalSchedule& schedule) {
  if (!std::is_sorted(schedule.begin(), schedule.end())) {
    throw std::invalid_argument{
        "workload: every arrival schedule must be sorted"};
  }
  if (!schedule.empty() && schedule.front() < sim::Duration::zero()) {
    throw std::invalid_argument{
        "workload: an arrival schedule must not start before the run"};
  }
}

/// The view every runner reads a caller's checked schedule through.
SourceView sorted_view(common::WorkflowId workflow, std::string_view name,
                       const ArrivalSchedule& schedule) {
  check_schedule(schedule);
  return SourceView{workflow, name, &schedule};
}

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

}  // namespace

std::vector<MixedArrival> TrafficMix::merged() const {
  std::vector<SourceView> views;
  views.reserve(sources_.size());
  for (const TrafficSource& source : sources_) {
    views.push_back(SourceView{source.workflow, source.name, &source.schedule});
  }
  return merge_order(views);
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
// streaming consumer in submission-slot order.  Slot i fires at base + its
// offset under the key prescheduling every slot in order would give it,
// reserved up front; only the arrivals on the next timestamp are queued.
// Lives on the stack of run_sources (which outlives the simulation loop);
// arrival and completion callbacks capture [this, slot] -- 16 bytes, inside
// the callbacks' inline buffers.
//
// Completions arrive out of submission order (a short chain submitted late
// can finish before a long chain submitted early), but the digest must hash
// rows in slot order to stay byte-identical with the batch render of the
// retained vector.  One reorder window serves every run: the completion of
// the next slot to fold folds straight from the engine's reference, and a
// later slot parks in an ordered map until every earlier slot has folded,
// then is moved out on its turn.  Retaining results only adds a sink to
// that fold, which appends each folded result to the caller's vectors.
class MixDriver {
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
  // may reach a destroyed MixDriver.  The queued arrivals are cancelled
  // (the rest were never queued), and requests still in flight fail now,
  // which also turns their queued engine events into no-ops; their results
  // are discarded unfolded.  Should failing them throw, the implicit
  // noexcept terminates the program rather than leave callbacks dangling.
  ~MixDriver() {
    for (const common::EventId id : queued_) sim_.cancel(id);
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

  /// Reserves one key per slot, in slot order, so slot i's key is
  /// (base + offset(i), s0 + i), and queues the first timestamp's arrivals.
  void start() {
    for (std::size_t slot = 0; slot < total_; ++slot) {
      const std::uint64_t seq = sim_.reserve_key(base_ + offset(slot)).seq;
      if (slot == 0) seq_base_ = seq;
    }
    queue_next_timestamp();
  }

 private:
  [[nodiscard]] sim::Duration offset(std::size_t slot) const {
    return single_ ? (*sources_.front().schedule)[slot] : merged_[slot].at;
  }
  [[nodiscard]] std::size_t source_of(std::size_t slot) const {
    return single_ ? 0 : merged_[slot].source;
  }

  /// Queues every arrival on the next unqueued arrival's timestamp at once:
  /// the race detector's grouped drain collects a timestamp before firing
  /// any of it, so a burst must be queued whole.
  void queue_next_timestamp() {
    queued_.clear();
    if (next_queue_ == total_) return;
    const sim::Duration at = offset(next_queue_);
    do {
      const std::size_t slot = next_queue_++;
      queued_.push_back(sim_.schedule_keyed(
          sim::EventKey{base_ + at, seq_base_ + slot},
          [this, slot] { arrive(slot); }, "workload.arrival"));
    } while (next_queue_ != total_ && offset(next_queue_) == at);
    unfired_ = queued_.size();
  }

  /// The last of a timestamp's arrivals to fire -- by count, since the
  /// race detector may fire them in any order -- queues the next one's.
  void arrive(std::size_t slot) {
    if (--unfired_ == 0) queue_next_timestamp();
    if (options_.force_cold_each_request) manager_.force_cold_start();
    manager_.submit(sources_[source_of(slot)].workflow,
                    [this, slot](const platform::RequestResult& result) {
                      on_complete(slot, result);
                    });
  }

  void on_complete(std::size_t slot, const platform::RequestResult& result) {
    if (abandoned_) return;
    ++completed_;
    // Every run stops driving at its last completion.
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
  /// Seq of slot 0's reserved key; slot i's is seq_base_ + i.
  std::uint64_t seq_base_ = 0;
  /// First slot not yet queued.
  std::size_t next_queue_ = 0;
  /// The queued timestamp's arrivals, and how many of them have not fired.
  std::vector<common::EventId> queued_;
  std::size_t unfired_ = 0;
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

/// With allow_incomplete: how long past its last arrival a run waits before
/// the requests still incomplete count as stranded.  It bounds the run: a
/// stranded request keeps the recurring host-outage event alive, so the
/// event queue alone never drains.
constexpr sim::Duration kStallHorizon = sim::Duration::from_minutes(10);

/// The one run lifecycle, shared by run_schedule and run_mixed_schedule (and
/// so by every shard of run_sharded_mix).  `sources` are sorted and read in
/// place.  Every per_source lane gets its stats and digest; with
/// `retain_lanes` the lanes also retain their results.
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

  // 1. Drive.  The driver interrupts the drain at the last completion, so
  // the clock rests there.  An empty run fires only what is due now.
  // Under allow_incomplete the run is bounded in virtual time: requests
  // still incomplete at the stall horizon count as stranded, and the clock
  // rests at the horizon.
  if (driver.total() == 0) {
    sim.run_until(base);
  } else if (options.allow_incomplete) {
    sim.run_until(base + driver.last_arrival() + kStallHorizon);
  } else {
    sim.run();
  }
  // 2. Fail the leftovers: stranded by an injected fault with recovery
  // disabled, so every slot holds a result (failed or completed).
  if (driver.completed() != driver.total() && options.allow_incomplete) {
    manager.engine().fail_all_pending_requests("stranded by injected fault");
  }
  if (driver.completed() != driver.total()) {
    throw std::logic_error{"workload: not all requests completed"};
  }
  XANADU_INVARIANT(driver.folded() == driver.total(),
                   "workload: streaming fold did not drain");
  // 3. Drain.  4. Flush.
  if (options.drain_after_last) sim.run();
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

}  // namespace

RunOutcome run_schedule(core::DispatchManager& manager,
                        common::WorkflowId workflow,
                        const ArrivalSchedule& schedule,
                        const RunOptions& options) {
  // Single-tenant traffic is the one-source special case of a mix: the
  // merged order of a lone sorted source is the source order itself, so the
  // event-creation sequence (and hence every trace digest) is unchanged.
  // Only the aggregate is returned, so the lone lane retains nothing.
  MixedOutcome outcome =
      run_sources(manager, {sorted_view(workflow, "", schedule)}, options,
                  /*retain_lanes=*/false);
  return std::move(outcome.aggregate);
}

MixedOutcome run_mixed_schedule(core::DispatchManager& manager,
                                const TrafficMix& mix,
                                const RunOptions& options) {
  std::vector<SourceView> views;
  views.reserve(mix.sources().size());
  for (const TrafficSource& source : mix.sources()) {
    views.push_back(sorted_view(source.workflow, source.name, source.schedule));
  }
  return run_sources(manager, std::move(views), options,
                     /*retain_lanes=*/true);
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
    check_schedule(shards[i].schedule);
  }

  ShardedOutcome outcome;
  MixedOutcome& mixed = outcome.mixed;
  mixed.per_source.resize(shards.size());
  mixed.source_names.reserve(shards.size());
  for (const ShardedSource& shard : shards) {
    mixed.source_names.push_back(shard.name);
  }
  std::vector<std::uint64_t> fired(shards.size(), 0);
  // A shard is a plain run_schedule on its own deployment, run whole on
  // whichever thread the fork-join hands it to.  It touches only that
  // deployment and its own lane, so no other shard can move anything it
  // does.
  sim::fork_join(shards.size(), options.threads, [&](std::size_t i) {
    const ShardedSource& shard = shards[i];
    const std::uint64_t before = shard.manager->simulator().events_fired();
    mixed.per_source[i] =
        run_schedule(*shard.manager, shard.workflow, shard.schedule, options);
    fired[i] = shard.manager->simulator().events_fired() - before;
  });

  // Deterministic aggregation, in shard order.
  RunOutcome& aggregate = mixed.aggregate;
  std::uint64_t trace_fold = common::kFnvOffsetBasis;
  std::uint64_t state_fold = common::kFnvOffsetBasis;
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
  }
  aggregate.trace_digest = trace_fold;
  outcome.state_digest = state_fold;
  return outcome;
}

}  // namespace xanadu::workload
