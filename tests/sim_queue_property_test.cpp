// Randomized property test for the slab-backed event queue.
//
// Drives the real sim::Simulator and a deliberately naive reference
// implementation (linear-scan min over a plain vector -- obviously correct,
// hopelessly slow) through identical randomized interleavings of
// schedule / cancel / run_until, including events that schedule children
// when they fire.  At every step the fired-event logs, clocks and pending
// counts must agree exactly.  This is the safety net that lets the real
// queue get clever (d-ary heap, tombstones, slot recycling) without a
// semantic escape hatch: any divergence in ordering, cancellation or clock
// handling shows up as a log mismatch with the seed printed.
//
// The keyed-run episodes add reserve_key()/schedule_keyed() to the mix: a
// run of keys is reserved up front, interleaved with same-time schedules,
// and the real simulator queues only the run's head, while the reference
// queues every member under its key at once.  Some runs queue one member
// at a time, each member queueing the next as it fires (as a warm pool's
// timer and a request's planned prewarms do); the others queue one
// timestamp at a time, the last of a timestamp's members to fire queueing
// the next timestamp's (as a replay's arrivals do).  The two must still
// agree under run_until, run and run_until drains that interrupt() ends
// early, the grouped drain, ties with events scheduled before and after the
// reservation, and runs dropped part way.  Under the grouped drain, a member
// queued while its timestamp fires lands between two members of the tie
// group being fired, the members an interrupt leaves unfired fire later in
// seq order, and the first tie group holding a member of a
// timestamp-at-a-time batch holds the whole batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using common::EventId;
using common::Rng;

/// A drain budget that never runs out.
constexpr std::size_t kNoBudget = std::numeric_limits<std::size_t>::max();

/// One fired event, as observed by either implementation.
struct Firing {
  std::uint32_t label;
  std::int64_t at_micros;

  bool operator==(const Firing& other) const {
    return label == other.label && at_micros == other.at_micros;
  }
};

/// Reference simulator: events in an unordered vector, pop-min by linear
/// scan over (when, seq).  No heap, no tombstones, no slab -- nothing that
/// could share a bug with the real implementation.
class ReferenceSim {
 public:
  void schedule(TimePoint when, std::uint32_t label) {
    queue_.push_back(Entry{when, next_seq_++, label});
  }

  /// Takes a sequence number, as Simulator::reserve_key does.
  std::uint64_t reserve() { return next_seq_++; }

  void schedule_keyed(TimePoint when, std::uint64_t seq, std::uint32_t label) {
    queue_.push_back(Entry{when, seq, label});
  }

  bool cancel(std::uint32_t label) {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [label](const Entry& e) { return e.label == label; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  /// Fires the events due by `deadline`, at most `budget` of them.  The
  /// clock then moves to `deadline` -- unless the budget ran out, as when
  /// interrupt() ends the real drain: then it rests at the last event fired.
  template <typename OnFire>
  void run_until(TimePoint deadline, OnFire&& on_fire,
                 std::size_t budget = kNoBudget) {
    if (fire_due(deadline, on_fire, budget) && now_ < deadline) {
      now_ = deadline;
    }
  }

  template <typename OnFire>
  void run(OnFire&& on_fire, std::size_t budget = kNoBudget) {
    fire_due(TimePoint{std::numeric_limits<std::int64_t>::max()}, on_fire,
             budget);
  }

  /// Time of the `index`-th queued entry (in storage order, which is
  /// deterministic): lets a test aim new events at existing timestamps.
  [[nodiscard]] TimePoint time_of(std::size_t index) const {
    return queue_[index].when;
  }

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t label;
  };

  /// Pops and fires events due by `deadline` in (when, seq) order, at most
  /// `budget` of them; false when the budget ran out.
  template <typename OnFire>
  bool fire_due(TimePoint deadline, OnFire& on_fire, std::size_t budget) {
    for (std::size_t fired = 0; fired != budget; ++fired) {
      const auto it = min_entry();
      if (it == queue_.end() || it->when > deadline) return true;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);  // May re-enter schedule().
    }
    return false;
  }

  std::vector<Entry>::iterator min_entry() {
    return std::min_element(queue_.begin(), queue_.end(),
                            [](const Entry& a, const Entry& b) {
                              if (a.when != b.when) return a.when < b.when;
                              return a.seq < b.seq;
                            });
  }

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> queue_;
};

struct EpisodeOptions {
  /// Attach a TieRecorder so run()/run_until() take the grouped drain.
  bool grouped = false;
  /// Reserve runs of keys, queue each run a member or a timestamp at a
  /// time, drop runs part way, and alternate run_until with run and
  /// run_until drains that interrupt() ends early.
  bool keyed_runs = false;
};

/// A run of reserved keys on the real side.  Members [next - queued.size(),
/// next) are queued (as `queued`), and the last of them to fire queues the
/// next member -- or, for a `by_timestamp` run, every member on the next
/// member's timestamp.
struct KeyedRun {
  std::vector<EventKey> keys;
  std::vector<std::uint32_t> labels;
  bool by_timestamp = false;
  std::size_t next = 0;
  std::vector<EventId> queued;
  std::size_t unfired = 0;
};

/// One timestamp's members of a by_timestamp run, queued together.
struct KeyedBatch {
  std::vector<std::uint64_t> seqs;
  /// For each cancelled member, by seq: how many tie groups had been
  /// recorded when it was cancelled.
  std::map<std::uint64_t, std::size_t> cancelled_at;
};

/// Drives both simulators in lock-step through one randomized episode.
class LockstepDriver {
 public:
  explicit LockstepDriver(std::uint64_t seed, EpisodeOptions options = {})
      : rng_(seed), seed_(seed), options_(options) {
    if (options_.grouped) real_.set_tie_recorder(&recorder_);
  }

  void run_episode(int phases) {
    for (int phase = 0; phase < phases; ++phase) {
      const std::size_t to_schedule = 1 + rng_.uniform_int(8);
      for (std::size_t i = 0; i < to_schedule; ++i) {
        schedule_fresh(static_cast<std::int64_t>(rng_.uniform_int(5'000)));
      }
      if (options_.keyed_runs) keyed_step();
      const std::size_t to_cancel = rng_.uniform_int(4);
      for (std::size_t i = 0; i < to_cancel; ++i) cancel_random();
      cancel_retired();  // Stale-id cancels must be no-ops in both.
      const auto stride = static_cast<std::int64_t>(rng_.uniform_int(4'000));
      if (options_.keyed_runs && rng_.uniform_int(2) == 0) {
        advance_interrupted(stride, 1 + rng_.uniform_int(6));
      } else {
        advance(stride);
      }
      check_converged("phase " + std::to_string(phase));
    }
    drain();
    check_converged("final drain");
    ASSERT_EQ(real_.pending(), 0u) << diag("queue not empty after drain");
    if (options_.grouped) check_batches_grouped_whole();
  }

  [[nodiscard]] std::size_t tie_groups() const {
    return recorder_.groups.size();
  }
  [[nodiscard]] std::size_t keyed_fired() const { return keyed_fired_; }
  /// Tie groups that held a member of a by_timestamp batch of 2 or more.
  [[nodiscard]] std::size_t batch_groups() const { return batch_groups_; }

 private:
  /// Child-spawning rule, applied identically by both implementations: every
  /// third label schedules a follow-up when it fires, up to depth 3.  Labels
  /// encode depth in the millions digit, so child labels never collide with
  /// fresh top-level labels (which stay below 1'000'000).
  static constexpr std::uint32_t kDepthStride = 1'000'000;
  static bool spawns_child(std::uint32_t label) {
    return label % 3 == 0 && label < 3 * kDepthStride;
  }
  static std::uint32_t child_of(std::uint32_t label) {
    return label + kDepthStride;
  }
  static Duration child_delay(std::uint32_t label) {
    return Duration::from_micros(static_cast<std::int64_t>(label % 900 + 1));
  }

  void schedule_fresh(std::int64_t delay_micros) {
    const std::uint32_t label = next_label_++;
    schedule_both(Duration::from_micros(delay_micros), label);
  }

  void schedule_both(Duration delay, std::uint32_t label) {
    const TimePoint when = real_.now() + delay;
    real_ids_[label] =
        real_.schedule_after(delay, [this, label] { on_real_fire(label); });
    ref_.schedule(when, label);
  }

  void on_real_fire(std::uint32_t label) {
    real_log_.push_back(Firing{label, real_.now().micros()});
    real_ids_.erase(label);
    if (spawns_child(label)) schedule_child_real(label);
    if (const auto member = run_of_.find(label); member != run_of_.end()) {
      KeyedRun& run = *runs_[member->second];
      run_of_.erase(member);
      ++keyed_fired_;
      if (--run.unfired == 0) queue_next(run);
    }
    if (budget_ != kNoBudget && --budget_ == 0) real_.interrupt();
  }

  /// Queues `run`'s next member under its reserved key -- for a
  /// by_timestamp run, every member on that member's timestamp -- if one is
  /// left.
  void queue_next(KeyedRun& run) {
    run.queued.clear();
    if (run.next == run.keys.size()) return;
    const TimePoint when = run.keys[run.next].when;
    const std::size_t batch = batches_.size();
    if (run.by_timestamp) batches_.emplace_back();
    do {
      const std::uint32_t label = run.labels[run.next];
      const std::uint64_t seq = run.keys[run.next].seq;
      run.queued.push_back(real_.schedule_keyed(
          run.keys[run.next], [this, label] { on_real_fire(label); },
          "test.keyed"));
      if (run.by_timestamp) {
        batch_of_[label] = batch;
        batch_of_seq_[seq] = batch;
        batches_[batch].seqs.push_back(seq);
      }
      ++run.next;
    } while (run.by_timestamp && run.next != run.keys.size() &&
             run.keys[run.next].when == when);
    run.unfired = run.queued.size();
  }

  /// Keyed-run moves for one phase: sometimes drop a live run part way
  /// (its queued members are cancelled, the rest never queued), sometimes
  /// start a new one, queued a member or a timestamp at a time.  A new run
  /// starts on a queued event's timestamp half the time and steps by
  /// 0-2 x 200 us, so members tie among themselves; after each reservation
  /// a same-time event is scheduled half the time, so schedules interleave
  /// with the run's keys and ties put members on both sides of ordinary
  /// events.
  void keyed_step() {
    for (const std::unique_ptr<KeyedRun>& run : runs_) {
      if (run->queued.empty() || rng_.uniform_int(8) != 0) continue;
      const std::size_t first = run->next - run->queued.size();
      for (std::size_t i = 0; i < run->queued.size(); ++i) {
        const std::uint32_t label = run->labels[first + i];
        if (!real_.cancel(run->queued[i])) continue;  // Fired already.
        ASSERT_TRUE(ref_.cancel(label)) << diag("ref lost a member");
        run_of_.erase(label);
        if (const auto batch = batch_of_.find(label);
            batch != batch_of_.end()) {
          batches_[batch->second].cancelled_at[run->keys[first + i].seq] =
              recorder_.groups.size();
        }
      }
      for (std::size_t i = run->next; i < run->keys.size(); ++i) {
        ASSERT_TRUE(ref_.cancel(run->labels[i])) << diag("ref lost a member");
        run_of_.erase(run->labels[i]);
      }
      run->next = run->keys.size();
      run->queued.clear();
      run->unfired = 0;
    }
    if (rng_.uniform_int(2) != 0) return;

    auto run = std::make_unique<KeyedRun>();
    run->by_timestamp = rng_.uniform_int(2) == 0;
    const std::size_t count = 1 + rng_.uniform_int(6);
    TimePoint when = real_.now() + Duration::from_micros(static_cast<
                         std::int64_t>(rng_.uniform_int(3'000)));
    if (ref_.pending() > 0 && rng_.uniform_int(2) == 0) {
      when = ref_.time_of(rng_.uniform_int(ref_.pending()));
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t label = next_label_++;
      const EventKey key = real_.reserve_key(when);
      ref_.schedule_keyed(when, ref_.reserve(), label);
      run->keys.push_back(key);
      run->labels.push_back(label);
      run_of_[label] = runs_.size();
      if (rng_.uniform_int(2) == 0) {
        schedule_both(when - real_.now(), next_label_++);
      }
      when = when + Duration::from_micros(
                        static_cast<std::int64_t>(200 * rng_.uniform_int(3)));
    }
    queue_next(*run);
    runs_.push_back(std::move(run));
  }

  /// The first recorded tie group that holds a member of a by_timestamp
  /// batch holds every member not cancelled before it was recorded: the
  /// batch was queued whole before its timestamp was collected.  (When an
  /// interrupt cuts that group short, its unfired members go back into the
  /// queue, so a later group may hold some of them again.)
  void check_batches_grouped_whole() {
    std::map<std::size_t, std::size_t> first_group;  // Batch -> group.
    for (std::size_t g = 0; g < recorder_.groups.size(); ++g) {
      std::map<std::size_t, std::size_t> held;
      for (const TieEvent& event : recorder_.groups[g].events) {
        if (const auto it = batch_of_seq_.find(event.seq);
            it != batch_of_seq_.end()) {
          ++held[it->second];
        }
      }
      for (const auto& [id, count] : held) {
        if (!first_group.emplace(id, g).second) continue;
        const KeyedBatch& batch = batches_[id];
        std::size_t live = 0;
        for (const std::uint64_t seq : batch.seqs) {
          const auto cancelled = batch.cancelled_at.find(seq);
          if (cancelled == batch.cancelled_at.end() || cancelled->second > g) {
            ++live;
          }
        }
        ASSERT_EQ(count, live)
            << diag("tie group " + std::to_string(g) + " split batch " +
                    std::to_string(id));
        if (batch.seqs.size() > 1) ++batch_groups_;
      }
    }
  }

  void schedule_child_real(std::uint32_t label) {
    const std::uint32_t child = child_of(label);
    real_ids_[child] = real_.schedule_after(
        child_delay(label), [this, child] { on_real_fire(child); });
  }

  void on_ref_fire(std::uint32_t label) {
    ref_log_.push_back(Firing{label, ref_.now().micros()});
    if (spawns_child(label)) {
      ref_.schedule(ref_.now() + child_delay(label), child_of(label));
    }
  }

  void cancel_random() {
    if (real_ids_.empty()) return;
    // Pick by rank in the sorted outstanding map: deterministic given the
    // seed, independent of EventId encoding.
    auto it = real_ids_.begin();
    std::advance(it, static_cast<std::int64_t>(
                         rng_.uniform_int(real_ids_.size())));
    const std::uint32_t label = it->first;
    const bool real_ok = real_.cancel(it->second);
    const bool ref_ok = ref_.cancel(label);
    ASSERT_TRUE(real_ok) << diag("real cancel refused a pending event");
    ASSERT_TRUE(ref_ok) << diag("ref cancel refused a pending event");
    retired_.push_back(it->second);
    real_ids_.erase(it);
  }

  void cancel_retired() {
    // Ids of events that already fired or were cancelled: both sides must
    // treat them as dead, no matter how the real queue recycles slots.
    for (const EventId id : retired_) {
      ASSERT_FALSE(real_.cancel(id)) << diag("stale id cancelled something");
    }
  }

  void advance(std::int64_t stride_micros) {
    const TimePoint deadline =
        real_.now() + Duration::from_micros(stride_micros);
    // An interrupt outside a drain must not end the next one.
    if (options_.keyed_runs && rng_.uniform_int(4) == 0) real_.interrupt();
    real_.run_until(deadline);
    ref_.run_until(deadline, [this](std::uint32_t label) { on_ref_fire(label); });
  }

  /// A drain that interrupt() ends after `budget` firings on the real side
  /// -- run_until(now + stride) or run(), by a coin flip -- and the same
  /// budget on the reference.
  void advance_interrupted(std::int64_t stride_micros, std::size_t budget) {
    const auto on_ref = [this](std::uint32_t label) { on_ref_fire(label); };
    budget_ = budget;
    if (rng_.uniform_int(2) == 0) {
      const TimePoint deadline =
          real_.now() + Duration::from_micros(stride_micros);
      real_.run_until(deadline);
      ref_.run_until(deadline, on_ref, budget);
    } else {
      real_.run();
      ref_.run(on_ref, budget);
    }
    budget_ = kNoBudget;
  }

  void drain() {
    real_.run();
    ref_.run([this](std::uint32_t label) { on_ref_fire(label); });
  }

  void check_converged(const std::string& where) {
    ASSERT_EQ(real_log_.size(), ref_log_.size()) << diag(where);
    for (std::size_t i = 0; i < real_log_.size(); ++i) {
      ASSERT_TRUE(real_log_[i] == ref_log_[i])
          << diag(where + ": divergence at firing " + std::to_string(i) +
                  " (real label " + std::to_string(real_log_[i].label) +
                  " @" + std::to_string(real_log_[i].at_micros) +
                  ", ref label " + std::to_string(ref_log_[i].label) + " @" +
                  std::to_string(ref_log_[i].at_micros) + ")");
    }
    ASSERT_EQ(real_.now().micros(), ref_.now().micros()) << diag(where);
    // Keyed-run members not yet queued are pending in the reference only.
    std::size_t unqueued = 0;
    for (const std::unique_ptr<KeyedRun>& run : runs_) {
      unqueued += run->keys.size() - run->next;
    }
    ASSERT_EQ(real_.pending() + unqueued, ref_.pending()) << diag(where);
    ASSERT_EQ(real_.events_fired(), real_log_.size()) << diag(where);
  }

  [[nodiscard]] std::string diag(const std::string& what) const {
    return what + " [seed " + std::to_string(seed_) + "]";
  }

  Rng rng_;
  std::uint64_t seed_;
  EpisodeOptions options_;
  Simulator real_;
  ReferenceSim ref_;
  TieRecorder recorder_;
  std::uint32_t next_label_ = 1;  // 0 is never used: label 0 % 3 == 0 quirk.
  std::map<std::uint32_t, EventId> real_ids_;
  std::vector<EventId> retired_;
  std::vector<Firing> real_log_;
  std::vector<Firing> ref_log_;
  /// Firings left before on_real_fire interrupts the drain.
  std::size_t budget_ = kNoBudget;
  /// Every keyed run started, and the run of each unfired member's label.
  std::vector<std::unique_ptr<KeyedRun>> runs_;
  std::map<std::uint32_t, std::size_t> run_of_;
  std::size_t keyed_fired_ = 0;
  /// Every batch a by_timestamp run queued, in queueing order, and the
  /// batch of each member queued in one, by label and by seq.
  std::vector<KeyedBatch> batches_;
  std::map<std::uint32_t, std::size_t> batch_of_;
  std::map<std::uint64_t, std::size_t> batch_of_seq_;
  std::size_t batch_groups_ = 0;
};

TEST(SimQueueProperty, MatchesReferenceAcrossRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LockstepDriver driver{seed};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimQueueProperty, KeyedRunsMatchPrescheduledReference) {
  std::size_t keyed = 0;
  for (std::uint64_t seed = 51; seed <= 74; ++seed) {
    EpisodeOptions options;
    options.keyed_runs = true;
    LockstepDriver driver{seed, options};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
    keyed += driver.keyed_fired();
  }
  EXPECT_GT(keyed, 300u) << "episodes stopped firing keyed runs";
}

TEST(SimQueueProperty, KeyedRunsMatchReferenceUnderTheGroupedDrain) {
  // A member queued while its timestamp fires can carry a seq between two
  // members of the tie group being fired; the grouped drain must fire it
  // between them, as the plain drain does.  A run queued a timestamp at a
  // time is in the queue whole when its timestamp is collected, so each
  // batch fires as one tie group.
  std::size_t keyed = 0;
  std::size_t groups = 0;
  std::size_t batch_groups = 0;
  for (std::uint64_t seed = 81; seed <= 96; ++seed) {
    EpisodeOptions options;
    options.grouped = true;
    options.keyed_runs = true;
    LockstepDriver driver{seed, options};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
    keyed += driver.keyed_fired();
    groups += driver.tie_groups();
    batch_groups += driver.batch_groups();
  }
  EXPECT_GT(keyed, 200u);
  EXPECT_GT(groups, 0u) << "grouped episodes formed no tie groups";
  EXPECT_GT(batch_groups, 0u) << "no tie group held a batch of two or more";
}

TEST(SimQueueProperty, KeyedInsertBetweenTieMembersFiresInSeqOrder) {
  // Member k1 is queued; X, k2 and Y share its timestamp, and k2's key is
  // reserved between X's and Y's.  k1 queues k2 as it fires, after the
  // grouped drain has collected {k1, X, Y}: k2 must still fire before Y.
  for (const bool grouped : {false, true}) {
    Simulator sim;
    TieRecorder recorder;
    if (grouped) sim.set_tie_recorder(&recorder);
    std::vector<std::string> order;
    const TimePoint t = TimePoint{} + Duration::from_millis(3);
    const EventKey k1 = sim.reserve_key(t);
    sim.schedule_at(t, [&] { order.push_back("X"); });
    const EventKey k2 = sim.reserve_key(t);
    sim.schedule_at(t, [&] { order.push_back("Y"); });
    sim.schedule_keyed(k1, [&] {
      order.push_back("k1");
      sim.schedule_keyed(k2, [&] { order.push_back("k2"); });
    });
    EXPECT_EQ(sim.run(), 4u);
    EXPECT_EQ(order, (std::vector<std::string>{"k1", "X", "k2", "Y"}))
        << (grouped ? "grouped drain" : "plain drain");
    if (grouped) {
      ASSERT_EQ(recorder.groups.size(), 1u);
      EXPECT_EQ(recorder.groups[0].events.size(), 3u);
    }
  }
}

TEST(SimQueueProperty, HeavySameTimeTiesKeepFifoOrder) {
  // Delays drawn from {0, 1, 2} microseconds force massive (when) ties, so
  // pop order is dominated by the FIFO sequence tie-break -- exactly the
  // territory where a d-ary heap with tombstone compaction could slip.
  for (std::uint64_t seed = 100; seed <= 112; ++seed) {
    Rng rng{seed};
    Simulator real;
    ReferenceSim ref;
    std::vector<std::uint32_t> real_order;
    std::vector<std::uint32_t> ref_order;
    std::vector<EventId> ids;
    std::vector<std::uint32_t> labels;
    for (std::uint32_t i = 0; i < 500; ++i) {
      const auto delay =
          Duration::from_micros(static_cast<std::int64_t>(rng.uniform_int(3)));
      ids.push_back(
          real.schedule_after(delay, [&real_order, i] { real_order.push_back(i); }));
      ref.schedule(real.now() + delay, i);
      labels.push_back(i);
    }
    // Cancel a random half, same victims on both sides.
    for (std::uint32_t i = 0; i < 250; ++i) {
      const auto victim = rng.uniform_int(ids.size());
      if (!real.cancel(ids[victim])) continue;  // Already-cancelled pick.
      ASSERT_TRUE(ref.cancel(labels[victim])) << "seed " << seed;
    }
    real.run();
    ref.run([&ref_order](std::uint32_t label) { ref_order.push_back(label); });
    ASSERT_EQ(real_order, ref_order) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xanadu::sim
