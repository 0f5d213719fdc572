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
// The arrival-stream episodes add attach_arrivals() to the mix: the real
// simulator queues one arrival at a time, the reference preschedules every
// arrival at attach time, and the two must still agree -- under run_until,
// run_before with interrupt(), the grouped drain, ties with events
// scheduled before and after the attach, detaches and empty streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using common::EventId;
using common::Rng;

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

  bool cancel(std::uint32_t label) {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [label](const Entry& e) { return e.label == label; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  template <typename OnFire>
  void run_until(TimePoint deadline, OnFire&& on_fire) {
    for (;;) {
      const auto it = min_entry();
      if (it == queue_.end() || it->when > deadline) break;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);  // May re-enter schedule().
    }
    if (now_ < deadline) now_ = deadline;
  }

  template <typename OnFire>
  void run(OnFire&& on_fire) {
    while (true) {
      const auto it = min_entry();
      if (it == queue_.end()) break;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);
    }
  }

  /// Fires at most `budget` events strictly before `bound`; the clock rests
  /// at the last one fired.
  template <typename OnFire>
  void run_before(TimePoint bound, std::size_t budget, OnFire&& on_fire) {
    for (std::size_t fired = 0; fired < budget; ++fired) {
      const auto it = min_entry();
      if (it == queue_.end() || it->when >= bound) break;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);
    }
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

/// Sorted arrivals for the real simulator's stream, fired through the same
/// handler as ordinary events.
class ScriptedStream final : public ArrivalStream {
 public:
  ScriptedStream(std::vector<TimePoint> times,
                 std::vector<std::uint32_t> labels,
                 std::function<void(std::uint32_t)> on_fire)
      : times_(std::move(times)),
        labels_(std::move(labels)),
        fired_(times_.size(), false),
        on_fire_(std::move(on_fire)) {}

  [[nodiscard]] TimePoint arrival_time(std::size_t index) const override {
    return times_[index];
  }
  void fire_arrival(std::size_t index) override {
    fired_[index] = true;
    on_fire_(labels_[index]);
  }

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] std::size_t unfired() const {
    return static_cast<std::size_t>(
        std::count(fired_.begin(), fired_.end(), false));
  }
  [[nodiscard]] std::vector<std::uint32_t> unfired_labels() const {
    std::vector<std::uint32_t> labels;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (!fired_[i]) labels.push_back(labels_[i]);
    }
    return labels;
  }
  [[nodiscard]] TimePoint time(std::size_t index) const {
    return times_[index];
  }

 private:
  std::vector<TimePoint> times_;
  std::vector<std::uint32_t> labels_;
  std::vector<bool> fired_;
  std::function<void(std::uint32_t)> on_fire_;
};

struct EpisodeOptions {
  /// Attach, tie against and detach arrival streams; alternate run_until
  /// with interrupted run_before drains.
  bool arrival_streams = false;
  /// Attach a TieRecorder so run()/run_until() take the grouped drain.
  bool grouped = false;
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
      if (options_.arrival_streams) stream_step();
      const std::size_t to_cancel = rng_.uniform_int(4);
      for (std::size_t i = 0; i < to_cancel; ++i) cancel_random();
      cancel_retired();  // Stale-id cancels must be no-ops in both.
      const auto stride = static_cast<std::int64_t>(rng_.uniform_int(4'000));
      if (options_.arrival_streams && rng_.uniform_int(2) == 0) {
        advance_before(stride, 1 + rng_.uniform_int(6));
      } else {
        advance(stride);
      }
      check_converged("phase " + std::to_string(phase));
    }
    drain();
    check_converged("final drain");
    ASSERT_EQ(real_.pending(), 0u) << diag("queue not empty after drain");
    ASSERT_EQ(real_.slab_occupancy(), 0u) << diag("slab leak after drain");
  }

  [[nodiscard]] std::size_t arrivals_attached() const {
    return arrivals_attached_;
  }
  [[nodiscard]] std::size_t tie_groups() const {
    return recorder_.groups.size();
  }

 private:
  /// Child-spawning rule, applied identically by both implementations: every
  /// third label schedules a follow-up when it fires, up to depth 3.  Labels
  /// encode depth in the millions digit, so child labels never collide with
  /// fresh top-level labels (which stay below 1'000'000).
  static constexpr std::uint32_t kDepthStride = 1'000'000;
  static constexpr std::size_t kNoBudget =
      std::numeric_limits<std::size_t>::max();
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
    if (budget_ != kNoBudget && --budget_ == 0) real_.interrupt();
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

  /// Arrival-stream moves for one phase: while a stream has arrivals left,
  /// a second attach must throw (and consume nothing) and the stream is
  /// sometimes detached; otherwise a new stream -- possibly empty -- is
  /// attached, tying with queued events and then with fresh ones.
  void stream_step() {
    if (stream_ != nullptr && stream_->unfired() > 0) {
      ScriptedStream spare{{real_.now()}, {0}, [](std::uint32_t) {}};
      EXPECT_THROW(real_.attach_arrivals(spare, 1), std::logic_error)
          << diag("second attach while a stream is live");
      if (rng_.uniform_int(6) == 0) {
        for (const std::uint32_t label : stream_->unfired_labels()) {
          ASSERT_TRUE(ref_.cancel(label)) << diag("ref lost an arrival");
        }
        real_.detach_arrivals(*stream_);
        stream_ = nullptr;
      }
      return;
    }
    if (rng_.uniform_int(2) != 0) return;

    const std::size_t count = rng_.uniform_int(24);  // 0: an empty stream.
    // Start on a queued event's timestamp half the time (ties with events
    // scheduled before the attach); arrivals then step by 0-2 x 200 us, so
    // they tie among themselves too.
    TimePoint when = real_.now() + Duration::from_micros(static_cast<
                         std::int64_t>(rng_.uniform_int(3'000)));
    if (ref_.pending() > 0 && rng_.uniform_int(2) == 0) {
      when = ref_.time_of(rng_.uniform_int(ref_.pending()));
    }
    std::vector<TimePoint> times;
    std::vector<std::uint32_t> labels;
    for (std::size_t i = 0; i < count; ++i) {
      times.push_back(when);
      labels.push_back(next_label_++);
      when = when + Duration::from_micros(
                        static_cast<std::int64_t>(200 * rng_.uniform_int(3)));
    }
    streams_.push_back(std::make_unique<ScriptedStream>(
        times, labels, [this](std::uint32_t label) { on_real_fire(label); }));
    const std::size_t pending_before = real_.pending();
    const std::size_t slab_before = real_.slab_occupancy();
    real_.attach_arrivals(*streams_.back(), count, "test.arrival");
    for (std::size_t i = 0; i < count; ++i) ref_.schedule(times[i], labels[i]);
    ASSERT_EQ(real_.pending(), pending_before + count) << diag("attach");
    ASSERT_EQ(real_.slab_occupancy(), slab_before)
        << diag("arrivals took slab slots");
    arrivals_attached_ += count;
    stream_ = streams_.back().get();
    if (count == 0) return;

    // Ties with events scheduled after the attach: later sequence numbers,
    // so they fire after the tied arrivals in both implementations.
    const std::size_t extra = rng_.uniform_int(3);
    for (std::size_t i = 0; i < extra; ++i) {
      const TimePoint target = stream_->time(rng_.uniform_int(count));
      schedule_both(target - real_.now(), next_label_++);
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
    real_.run_until(deadline);
    ref_.run_until(deadline, [this](std::uint32_t label) { on_ref_fire(label); });
  }

  /// run_before(bound) on the real side, ended by interrupt() after
  /// `budget` firings; the reference fires the same budget.
  void advance_before(std::int64_t stride_micros, std::size_t budget) {
    const TimePoint bound = real_.now() + Duration::from_micros(stride_micros);
    budget_ = budget;
    real_.run_before(bound);
    budget_ = kNoBudget;
    ref_.run_before(bound, budget,
                    [this](std::uint32_t label) { on_ref_fire(label); });
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
    ASSERT_EQ(real_.pending(), ref_.pending()) << diag(where);
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
  /// Firings left before on_real_fire interrupts a run_before drain.
  std::size_t budget_ = kNoBudget;
  /// Every stream ever attached (a stream must outlive its attachment).
  std::vector<std::unique_ptr<ScriptedStream>> streams_;
  ScriptedStream* stream_ = nullptr;
  std::size_t arrivals_attached_ = 0;
};

TEST(SimQueueProperty, MatchesReferenceAcrossRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LockstepDriver driver{seed};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimQueueProperty, ArrivalStreamMatchesPrescheduledReference) {
  std::size_t arrivals = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LockstepDriver driver{seed, EpisodeOptions{/*arrival_streams=*/true,
                                               /*grouped=*/false}};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
    arrivals += driver.arrivals_attached();
  }
  EXPECT_GT(arrivals, 500u) << "episodes stopped attaching streams";
}

TEST(SimQueueProperty, ArrivalStreamMatchesReferenceUnderTheGroupedDrain) {
  // The race detector's drain collects a whole timestamp before firing it;
  // popping the stream's head queues the next arrival first, so a tie
  // group holds every arrival on its timestamp, as if all were queued.
  std::size_t groups = 0;
  for (std::uint64_t seed = 31; seed <= 42; ++seed) {
    LockstepDriver driver{seed, EpisodeOptions{/*arrival_streams=*/true,
                                               /*grouped=*/true}};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
    groups += driver.tie_groups();
  }
  EXPECT_GT(groups, 0u) << "grouped episodes formed no tie groups";
}

TEST(SimQueueProperty, ArrivalStreamAttachRules) {
  Simulator sim;
  std::vector<std::size_t> fired;
  auto record = [&fired](std::uint32_t label) { fired.push_back(label); };
  const TimePoint t0 = TimePoint{} + Duration::from_millis(5);
  sim.run_until(t0);

  // An arrival before now() throws, as schedule_at does, and attaches
  // nothing.
  ScriptedStream past{{t0 - Duration::from_millis(1)}, {1}, record};
  EXPECT_THROW(sim.attach_arrivals(past, 1), std::invalid_argument);
  EXPECT_EQ(sim.pending(), 0u);

  // An empty stream attaches nothing and leaves room for the next one.
  ScriptedStream empty{{}, {}, record};
  sim.attach_arrivals(empty, 0);
  EXPECT_EQ(sim.pending(), 0u);

  ScriptedStream two{{t0, t0 + Duration::from_millis(1)}, {2, 3}, record};
  sim.attach_arrivals(two, 2, "test.arrival");
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.slab_occupancy(), 0u);
  EXPECT_THROW(sim.attach_arrivals(empty, 0), std::logic_error);
  sim.detach_arrivals(empty);  // Not the attached stream: no effect.
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, (std::vector<std::size_t>{2, 3}));

  // The exhausted stream detached itself: a new one may attach.
  ScriptedStream unsorted{{sim.now() + Duration::from_millis(2), sim.now()},
                          {4, 5},
                          record};
  sim.attach_arrivals(unsorted, 2);
  // Popping arrival 0 finds arrival 1 earlier: the drain throws before
  // firing anything, and the stream can still be detached cleanly.
  EXPECT_THROW(sim.run(), std::invalid_argument);
  EXPECT_EQ(fired.size(), 2u);
  sim.detach_arrivals(unsorted);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
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
