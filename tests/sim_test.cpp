// Unit tests for the discrete-event simulator and virtual time.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using namespace xanadu::sim::literals;

// ---------------------------------------------------------------- time ----

TEST(Time, DurationConversions) {
  EXPECT_EQ(Duration::from_millis(1.5).micros(), 1500);
  EXPECT_EQ(Duration::from_seconds(2.0).micros(), 2'000'000);
  EXPECT_EQ(Duration::from_minutes(1.0).micros(), 60'000'000);
  EXPECT_DOUBLE_EQ(Duration::from_micros(2500).millis(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::from_micros(2'500'000).seconds(), 2.5);
}

TEST(Time, Literals) {
  EXPECT_EQ((5_ms).micros(), 5000);
  EXPECT_EQ((2_s).micros(), 2'000'000);
  EXPECT_EQ((1_min).micros(), 60'000'000);
  EXPECT_EQ((7_us).micros(), 7);
}

TEST(Time, Arithmetic) {
  EXPECT_EQ((2_s + 500_ms).micros(), 2'500'000);
  EXPECT_EQ((2_s - 500_ms).micros(), 1'500'000);
  EXPECT_EQ((2_s * 1.5).micros(), 3'000'000);
  EXPECT_EQ((0.5 * 2_s).micros(), 1'000'000);
  TimePoint t{1'000'000};
  EXPECT_EQ((t + 1_s).micros(), 2'000'000);
  EXPECT_EQ(((t + 1_s) - t).micros(), 1'000'000);
}

TEST(Time, NegativeDurationClamps) {
  const Duration d = 1_s - 3_s;
  EXPECT_LT(d, Duration::zero());
  EXPECT_EQ(d.clamped_non_negative(), Duration::zero());
  EXPECT_EQ((2_s).clamped_non_negative(), 2_s);
}

TEST(Time, ToStringFormats) {
  EXPECT_EQ(to_string(Duration::from_seconds(1.25)), "1.250s");
  EXPECT_EQ(to_string(Duration::from_millis(300)), "300.000ms");
  EXPECT_EQ(to_string(Duration::from_micros(12)), "12us");
}

// ----------------------------------------------------------- simulator ----

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(3_s, [&] { order.push_back(3); });
  sim.schedule_after(1_s, [&] { order.push_back(1); });
  sim.schedule_after(2_s, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().micros(), (3_s).micros());
}

TEST(Simulator, SameTimeEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(1_s, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(1_s, chain);
  };
  sim.schedule_after(1_s, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().micros(), (5_s).micros());
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(1_s, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_after(1_s, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_after(1_s, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(common::EventId{}));
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  const auto a = sim.schedule_after(1_s, [] {});
  sim.schedule_after(2_s, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1_s, [&] { order.push_back(1); });
  sim.schedule_after(5_s, [&] { order.push_back(5); });
  EXPECT_EQ(sim.run_until(TimePoint{} + 2_s), 1u);
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(sim.now().micros(), (2_s).micros());
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Simulator, RunUntilFiresEventsExactlyAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(2_s, [&] { fired = true; });
  sim.run_until(TimePoint{} + 2_s);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(TimePoint{} + 10_s);
  EXPECT_EQ(sim.now().micros(), (10_s).micros());
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_after(5_s, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint{} + 1_s, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.run_until(TimePoint{} + 1_s), std::invalid_argument);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator sim;
  // An empty std::function converts to an empty EventFn, which schedule
  // rejects.
  EXPECT_THROW(sim.schedule_after(1_s, std::function<void()>{}),
               std::invalid_argument);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::from_seconds(-3), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().micros(), 0);
}

TEST(Simulator, CancelFreesCallbackEagerly) {
  // Cancelling must destroy the captured state immediately, not when the
  // tombstone is later popped or the simulator is destroyed: pending timers
  // commonly pin shared_ptrs (bus messages, request state).
  Simulator sim;
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  const auto id = sim.schedule_after(1_s, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(token.use_count(), 1) << "cancel must free the callback eagerly";
}

TEST(Simulator, CancelTenThousandReturnsSlabToEmpty) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::vector<common::EventId> ids;
  ids.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(sim.schedule_after(Duration::from_millis(i + 1),
                                     [token] { ++*token; }));
  }
  EXPECT_EQ(sim.pending(), 10'000u);
  EXPECT_EQ(sim.slab_occupancy(), 10'000u);
  EXPECT_EQ(token.use_count(), 10'001);

  for (const auto id : ids) EXPECT_TRUE(sim.cancel(id));

  // Every callback destroyed at cancel time, every slot back on the free
  // list, and compaction has collapsed the tombstone-only heap.
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.slab_occupancy(), 0u);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.tombstone_count(), 0u);

  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(*token, 0);
}

TEST(Simulator, TombstonesCompactLazily) {
  // Cancel just under half the heap: tombstones linger (cancel stays O(1)).
  // One more cancel crosses the 2x threshold and triggers compaction.
  Simulator sim;
  std::vector<common::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_after(Duration::from_millis(i + 1), [] {}));
  }
  for (int i = 0; i < 50; ++i) sim.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.pending(), 50u);
  EXPECT_EQ(sim.heap_entries(), 100u);  // 50 live + 50 tombstones, no sweep
  EXPECT_EQ(sim.tombstone_count(), 50u);

  sim.cancel(ids[50]);  // 51 * 2 > 100: compaction sweeps all tombstones
  EXPECT_EQ(sim.pending(), 49u);
  EXPECT_EQ(sim.heap_entries(), 49u);
  EXPECT_EQ(sim.tombstone_count(), 0u);

  EXPECT_EQ(sim.run(), 49u);  // survivors still fire, in order
  EXPECT_EQ(sim.slab_occupancy(), 0u);
}

TEST(Simulator, SlabSlotsAreRecycled) {
  // A fire-then-schedule steady state must reuse slots instead of growing
  // the slab: capacity reached during the warm-up never increases after.
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    sim.schedule_after(1_ms, [] {});
    sim.run();
  }
  const std::size_t capacity = sim.slab_capacity();
  EXPECT_LE(capacity, 4u);
  for (int round = 0; round < 100; ++round) {
    sim.schedule_after(1_ms, [] {});
    sim.run();
  }
  EXPECT_EQ(sim.slab_capacity(), capacity);
}

TEST(Simulator, StaleIdNeverCancelsRecycledSlot) {
  // After an event fires, its slot is recycled under a bumped generation:
  // the old EventId must not cancel the new occupant.
  Simulator sim;
  const auto stale = sim.schedule_after(1_ms, [] {});
  sim.run();
  bool fired = false;
  const auto fresh = sim.schedule_after(1_ms, [&] { fired = true; });
  EXPECT_NE(stale.value(), fresh.value());
  EXPECT_FALSE(sim.cancel(stale));
  sim.run();
  EXPECT_TRUE(fired);
}

// ------------------------------------------------------------- event fn ----

TEST(EventFn, InlineCaptureDoesNotAllocate) {
  // A capture within the inline budget round-trips through moves with no
  // heap traffic observable via shared ownership counts.
  auto token = std::make_shared<int>(0);
  EventFn fn{[token] { ++*token; }};
  static_assert(EventFn::kInlineCapacity >= sizeof(std::shared_ptr<int>));
  ASSERT_TRUE(static_cast<bool>(fn));
  EventFn moved{std::move(fn)};
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(token.use_count(), 2);      // moved, not copied
  moved();
  EXPECT_EQ(*token, 1);
  moved.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFn, OversizedCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > inline capacity
  big[3] = 42;
  int out = 0;
  EventFn fn{[big, &out] { out = static_cast<int>(big[3]); }};
  EventFn moved{std::move(fn)};
  moved();
  EXPECT_EQ(out, 42);
}

TEST(EventFn, EmptyStdFunctionStaysEmpty) {
  // Preserves the Simulator::schedule_at contract: wrapping an empty
  // std::function must produce an empty EventFn, not a live callable that
  // throws bad_function_call at fire time.
  EventFn fn{std::function<void()>{}};
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, MoveAssignReleasesPreviousTarget) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  EventFn fn{[first] {}};
  fn = EventFn{[second] {}};
  EXPECT_EQ(first.use_count(), 1) << "old target destroyed on move-assign";
  EXPECT_EQ(second.use_count(), 2);
}

TEST(Simulator, DeterministicInterleaving) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(Duration::from_millis(i % 7), [&, i] {
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xanadu::sim
