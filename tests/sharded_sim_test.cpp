// Sim-layer tests for the conservative parallel driver: LogicalProcess,
// ShardedSimulator's channel/bound/mailbox machinery, the run_before /
// peek_next_time / interrupt primitives it is built on, and the EventFn
// small-buffer boundaries that the cross-shard mailbox relies on (messages
// move their callbacks between threads, so the inline/heap split and
// move-only semantics matter here).
//
// The workload-level determinism pins (full DispatchManager shards, control
// bus, digests across threads x seeds) live in sharded_determinism_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/logical_process.hpp"
#include "sim/shard.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using namespace xanadu::sim::literals;

// ---------------------------------------------- run_before / peek --------

TEST(sharded_window_primitives, PeekNextTimeEmptyIsNullopt) {
  Simulator sim;
  EXPECT_FALSE(sim.peek_next_time().has_value());
}

TEST(sharded_window_primitives, PeekNextTimeSkipsCancelledFront) {
  Simulator sim;
  const auto id = sim.schedule_at(TimePoint{1000}, [] {});
  sim.schedule_at(TimePoint{2000}, [] {});
  ASSERT_EQ(sim.peek_next_time(), TimePoint{1000});
  ASSERT_TRUE(sim.cancel(id));
  // The tombstone at the heap front is discarded on the way.
  EXPECT_EQ(sim.peek_next_time(), TimePoint{2000});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(sharded_window_primitives, RunBeforeIsStrictAndKeepsClockBehindBound) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  sim.schedule_at(TimePoint{10}, [&] { fired.push_back(10); });
  sim.schedule_at(TimePoint{20}, [&] { fired.push_back(20); });
  sim.schedule_at(TimePoint{30}, [&] { fired.push_back(30); });

  // Events at exactly the bound stay queued...
  EXPECT_EQ(sim.run_before(TimePoint{20}), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10}));
  // ...and the clock sits at the last fired event, not at the bound, so a
  // later merge can still schedule into [now, bound).
  EXPECT_EQ(sim.now(), TimePoint{10});
  EXPECT_EQ(sim.peek_next_time(), TimePoint{20});

  EXPECT_EQ(sim.run_before(TimePoint{31}), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(sim.run_before(TimePoint{1000}), 0u);
}

TEST(sharded_window_primitives, InterruptEndsRunBeforeAfterTheCurrentEvent) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  sim.schedule_at(TimePoint{10}, [&] { fired.push_back(10); });
  sim.schedule_at(TimePoint{20}, [&] {
    fired.push_back(20);
    sim.interrupt();
  });
  sim.schedule_at(TimePoint{20}, [&] { fired.push_back(21); });
  sim.schedule_at(TimePoint{30}, [&] { fired.push_back(30); });

  // The interrupting event completes; its same-time successor stays queued.
  EXPECT_EQ(sim.run_before(TimePoint{1000}), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(sim.now(), TimePoint{20});

  // An interrupt outside run_before does not leak into the next drain.
  sim.interrupt();
  EXPECT_EQ(sim.run_before(TimePoint{1000}), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20, 21, 30}));
}

// --------------------------------------------------- driver contracts ----

TEST(sharded_driver, RejectsBadConfiguration) {
  ShardedSimulator driver;
  EXPECT_EQ(driver.run(1), 0u);  // No shards: trivially done.

  Simulator a;
  Simulator b;
  LogicalProcess& lp = driver.add_shard(a);
  driver.add_shard(b);
  EXPECT_EQ(lp.shard(), ShardId{0});
  EXPECT_THROW(driver.run(0), std::invalid_argument);

  // Channels: known shards, distinct ends, positive latency.
  EXPECT_THROW(driver.connect(ShardId{0}, ShardId{5}, 1_ms), std::out_of_range);
  EXPECT_THROW(driver.connect(ShardId{0}, ShardId{0}, 1_ms),
               std::invalid_argument);
  EXPECT_THROW(driver.connect(ShardId{0}, ShardId{1}, Duration::zero()),
               std::invalid_argument);

  // A send needs a declared channel, a known target and a callback.
  EXPECT_THROW(lp.send(ShardId{1}, TimePoint{1000}, [] {}), std::logic_error);
  driver.connect(ShardId{0}, ShardId{1}, 2_ms);
  EXPECT_THROW(lp.send(ShardId{5}, TimePoint{1000}, [] {}),
               std::out_of_range);
  EXPECT_THROW(lp.send(ShardId{1}, TimePoint{1000}, EventFn{}),
               std::invalid_argument);
  EXPECT_THROW(lp.send(ShardId{0}, TimePoint{1000}, [] {}), std::logic_error);

  // Declaring a channel freezes the topology.
  Simulator c;
  EXPECT_THROW(driver.add_shard(c), std::logic_error);
}

TEST(sharded_driver, SetupSendsFlushBeforeFirstWindow) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 10_ms);

  std::vector<std::uint64_t> hits;
  // Pre-run sends may land anywhere, including below the channel latency --
  // the latency contract only binds sends issued during run().
  lp_a.send(ShardId{1}, TimePoint{500},
            [&] { hits.push_back(b.now().micros()); });
  EXPECT_EQ(lp_a.sent_count(), 1u);

  EXPECT_EQ(driver.run(1), 1u);
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{500}));
  EXPECT_EQ(driver.messages_delivered(), 1u);
  EXPECT_EQ(driver.rounds(), 1u);
}

TEST(sharded_driver, MailboxMergesByTimeSourceIndex) {
  // Three sources race messages into shard 0 at colliding virtual times; the
  // merged firing order must be (when, source, index) regardless of the
  // real-time order the channels were filled in.
  ShardedSimulator driver;
  std::array<Simulator, 4> sims;
  std::vector<LogicalProcess*> lps;
  for (Simulator& sim : sims) lps.push_back(&driver.add_shard(sim));
  for (const ShardId source : {ShardId{1}, ShardId{2}, ShardId{3}}) {
    driver.connect(source, ShardId{0}, 1_ms);
  }

  std::vector<std::string> order;
  const auto tag = [&](std::string name) {
    return [&order, name = std::move(name)] { order.push_back(name); };
  };
  // Deliberately enqueue in scrambled source order.
  lps[3]->send(ShardId{0}, TimePoint{2000}, tag("t2.s3.i0"));
  lps[1]->send(ShardId{0}, TimePoint{2000}, tag("t2.s1.i0"));
  lps[1]->send(ShardId{0}, TimePoint{2000}, tag("t2.s1.i1"));
  lps[2]->send(ShardId{0}, TimePoint{1000}, tag("t1.s2.i0"));
  lps[3]->send(ShardId{0}, TimePoint{1000}, tag("t1.s3.i0"));

  EXPECT_EQ(driver.run(1), 5u);
  EXPECT_EQ(order, (std::vector<std::string>{"t1.s2.i0", "t1.s3.i0",
                                             "t2.s1.i0", "t2.s1.i1",
                                             "t2.s3.i0"}));
}

TEST(sharded_driver, SendBelowChannelLatencyThrows) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 5_ms);

  // A send landing 1 ms out on a 5 ms channel would undercut the bound the
  // target drained to on the strength of that latency.
  a.schedule_at(TimePoint{1000}, [&] {
    lp_a.send(ShardId{1}, a.now() + 1_ms, [] {});
  });
  EXPECT_THROW(driver.run(1), std::logic_error);

  // The failed run must not wedge the driver: a follow-up setup send and
  // run still work.
  bool landed = false;
  lp_a.send(ShardId{1}, TimePoint{9000}, [&] { landed = true; });
  EXPECT_EQ(driver.run(1), 1u);
  EXPECT_TRUE(landed);
}

TEST(sharded_driver, SendAtChannelLatencyIsAccepted) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 9_ms);
  driver.connect(ShardId{0}, ShardId{1}, 5_ms);  // The smaller latency wins.
  driver.connect(ShardId{0}, ShardId{1}, 7_ms);

  std::uint64_t landed_at = 0;
  a.schedule_at(TimePoint{1000}, [&] {
    // now + latency exactly: the tightest legal send.
    lp_a.send(ShardId{1}, a.now() + 5_ms,
              [&] { landed_at = b.now().micros(); });
  });
  EXPECT_EQ(driver.run(1), 2u);
  EXPECT_EQ(landed_at, 6000u);
}

TEST(sharded_driver, HaltAndStopAtBoundEachShard) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  LogicalProcess& lp_b = driver.add_shard(b);
  std::size_t fired_a = 0;
  std::size_t fired_b = 0;
  for (int i = 1; i <= 10; ++i) {
    const TimePoint at{static_cast<std::int64_t>(i) * 10'000};
    a.schedule_at(at, [&] { ++fired_a; });
    b.schedule_at(at, [&] {
      // Halts after the 40 ms event, which still completes.
      if (++fired_b == 4) lp_b.halt();
    });
  }

  // stop_at fires events at or before the horizon, then parks the clock
  // there; halt() stops its own shard only.
  lp_a.stop_at(TimePoint{30'000});
  EXPECT_EQ(driver.run(1), 7u);
  EXPECT_EQ(fired_a, 3u);
  EXPECT_EQ(a.now(), TimePoint{30'000});
  EXPECT_EQ(fired_b, 4u);
  EXPECT_EQ(b.now(), TimePoint{40'000});

  // Limits last one run: the next one drains both shards to empty.
  EXPECT_EQ(driver.run(2), 13u);
  EXPECT_EQ(fired_a, 10u);
  EXPECT_EQ(fired_b, 10u);

  // A horizon past every event still parks the clock on it; halt() outside
  // run() is a no-op.
  lp_b.halt();
  lp_a.stop_at(TimePoint{500'000});
  a.schedule_at(TimePoint{200'000}, [&] { ++fired_a; });
  b.schedule_at(TimePoint{200'000}, [&] { ++fired_b; });
  EXPECT_EQ(driver.run(1), 2u);
  EXPECT_EQ(a.now(), TimePoint{500'000});
  EXPECT_EQ(b.now(), TimePoint{200'000});
}

TEST(sharded_driver, ShardWithoutInboundChannelRunsAheadOfItsTarget) {
  // a -> b only: a's bound is +inf, so it drains its whole queue in the
  // first round; b trails one round behind and merges everything in order.
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 3_ms);
  std::vector<std::uint64_t> landed;
  for (int i = 1; i <= 100; ++i) {
    a.schedule_at(TimePoint{static_cast<std::int64_t>(i) * 1000}, [&] {
      lp_a.send(ShardId{1}, a.now() + 3_ms,
                [&] { landed.push_back(b.now().micros()); });
    });
  }
  EXPECT_EQ(driver.run(1), 200u);
  EXPECT_EQ(driver.rounds(), 2u);
  ASSERT_EQ(landed.size(), 100u);
  for (std::size_t i = 0; i < landed.size(); ++i) {
    EXPECT_EQ(landed[i], (i + 1) * 1000 + 3000);
  }
}

/// Source -> target traffic past the in-flight cap: `count` source events
/// 1 ms apart, each sending one message `lead` ahead.  Returns the delivery
/// times and, via the out-parameters, the rounds and the largest number of
/// undelivered messages any delivery observed.
std::vector<std::uint64_t> run_capped(unsigned threads, std::size_t count,
                                      Duration lead, std::uint64_t* rounds,
                                      std::uint64_t* max_in_flight) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 1_ms);
  std::vector<std::uint64_t> landed;
  *max_in_flight = 0;
  for (std::size_t i = 1; i <= count; ++i) {
    a.schedule_at(TimePoint{static_cast<std::int64_t>(i) * 1000}, [&] {
      lp_a.send(ShardId{1}, a.now() + lead, [&] {
        landed.push_back(b.now().micros());
        // Only meaningful sequentially, where the source's task has
        // finished its part of the round before the target's begins.
        if (threads == 1) {
          *max_in_flight = std::max<std::uint64_t>(
              *max_in_flight, lp_a.sent_count() - landed.size());
        }
      });
    });
  }
  driver.run(threads);
  *rounds = driver.rounds();
  return landed;
}

TEST(sharded_driver, ChannelCapBoundsInFlightMail) {
  constexpr std::size_t kCount = 5000;
  std::uint64_t rounds = 0;
  std::uint64_t max_in_flight = 0;
  const std::vector<std::uint64_t> base =
      run_capped(1, kCount, 1_ms, &rounds, &max_in_flight);
  ASSERT_EQ(base.size(), kCount);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], (i + 1) * 1000 + 1000);
  }
  // The source yields at the cap instead of mailing its whole run ahead:
  // at most one round's sends plus the round being consumed are in flight.
  EXPECT_LE(max_in_flight, 2 * ShardedSimulator::kChannelCap);
  EXPECT_GT(rounds, kCount / ShardedSimulator::kChannelCap);

  for (const unsigned threads : {2u, 4u}) {
    std::uint64_t threaded_rounds = 0;
    std::uint64_t unused = 0;
    EXPECT_EQ(run_capped(threads, kCount, 1_ms, &threaded_rounds, &unused),
              base)
        << "threads=" << threads;
    EXPECT_EQ(threaded_rounds, rounds) << "threads=" << threads;
  }
}

TEST(sharded_driver, CapIsWaivedWhenNoShardCouldOtherwiseMove) {
  // Every message lands an hour out, far past the target's bound, so the
  // target can consume none of them while the source is still running: a
  // full channel that nothing can drain.  Rather than deadlock, the driver
  // grants the channel one more cap's worth per such round, and the mail
  // still arrives in order.
  constexpr std::size_t kCount = 3000;
  std::uint64_t rounds = 0;
  std::uint64_t unused = 0;
  const std::vector<std::uint64_t> landed =
      run_capped(1, kCount, Duration::from_minutes(60), &rounds, &unused);
  ASSERT_EQ(landed.size(), kCount);
  for (std::size_t i = 1; i < landed.size(); ++i) {
    EXPECT_LT(landed[i - 1], landed[i]);
  }
  std::uint64_t threaded_rounds = 0;
  EXPECT_EQ(run_capped(4, kCount, Duration::from_minutes(60),
                       &threaded_rounds, &unused),
            landed);
  EXPECT_EQ(threaded_rounds, rounds);
}

// ----------------------------------------- thread-count invariance -------

struct PingState {
  std::array<LogicalProcess*, 2> lps{};
  Duration latency = Duration::zero();
  // Written only by the thread draining the owning shard.
  std::array<std::vector<std::uint64_t>, 2> logs;
};

void bounce(PingState* state, std::size_t at, int remaining) {
  Simulator& sim = state->lps[at]->simulator();
  state->logs[at].push_back(sim.now().micros());
  if (remaining <= 0) return;
  const std::size_t other = 1 - at;
  state->lps[at]->send(
      static_cast<ShardId>(other), sim.now() + state->latency,
      [state, other, remaining] { bounce(state, other, remaining - 1); },
      "test.bounce");
}

PingState run_pingpong(unsigned threads, std::uint64_t* rounds,
                       std::uint64_t* delivered) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  PingState state;
  state.lps = {&driver.add_shard(a), &driver.add_shard(b)};
  // A cyclic channel graph: each shard's bound depends on the other's.
  state.latency = 2_ms;
  driver.connect(ShardId{0}, ShardId{1}, state.latency);
  driver.connect(ShardId{1}, ShardId{0}, state.latency);
  // Two interleaved volleys plus local-only chatter on each shard.
  a.schedule_at(TimePoint{1000}, [&] { bounce(&state, 0, 12); });
  b.schedule_at(TimePoint{1500}, [&] { bounce(&state, 1, 12); });
  for (int i = 0; i < 50; ++i) {
    a.schedule_at(TimePoint{static_cast<std::int64_t>(700 + i * 37)},
                  [&] { state.logs[0].push_back(a.now().micros()); });
    b.schedule_at(TimePoint{static_cast<std::int64_t>(900 + i * 53)},
                  [&] { state.logs[1].push_back(b.now().micros()); });
  }
  driver.run(threads);
  *rounds = driver.rounds();
  *delivered = driver.messages_delivered();
  return state;
}

TEST(sharded_driver, ThreadCountNeverChangesTheTrace) {
  std::uint64_t base_rounds = 0;
  std::uint64_t base_delivered = 0;
  const PingState base = run_pingpong(1, &base_rounds, &base_delivered);
  ASSERT_GT(base_delivered, 0u);
  ASSERT_FALSE(base.logs[0].empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    std::uint64_t rounds = 0;
    std::uint64_t delivered = 0;
    const PingState run = run_pingpong(threads, &rounds, &delivered);
    EXPECT_EQ(run.logs[0], base.logs[0]) << "threads=" << threads;
    EXPECT_EQ(run.logs[1], base.logs[1]) << "threads=" << threads;
    EXPECT_EQ(rounds, base_rounds) << "threads=" << threads;
    EXPECT_EQ(delivered, base_delivered) << "threads=" << threads;
  }
}

TEST(sharded_driver, WorkerExceptionsSurfaceOnTheCaller) {
  ShardedSimulator driver;
  std::array<Simulator, 4> sims;
  for (Simulator& sim : sims) driver.add_shard(sim);
  for (std::size_t s = 0; s < sims.size(); ++s) {
    sims[s].schedule_at(TimePoint{1000}, [s] {
      if (s == 2) throw std::runtime_error{"boom on shard 2"};
    });
  }
  // With a pool in play the throw happens on a worker thread; the driver
  // must trap it at the round barrier and rethrow here instead of
  // terminating.
  EXPECT_THROW(driver.run(4), std::runtime_error);
}

// ------------------------------------------- EventFn SBO boundaries ------

struct Exactly56 {
  std::array<std::byte, 48> pad{};
  std::uint64_t* hits = nullptr;
  void operator()() const { ++*hits; }
};
static_assert(sizeof(Exactly56) == EventFn::kInlineCapacity);
static_assert(EventFn::fits_inline<Exactly56>(),
              "a callable exactly at the budget must stay inline");

struct OneOver {
  std::array<std::byte, 49> pad{};
  std::uint64_t* hits = nullptr;
  void operator()() const { ++*hits; }
};
static_assert(sizeof(OneOver) > EventFn::kInlineCapacity);
static_assert(!EventFn::fits_inline<OneOver>(),
              "one byte past the budget must take the heap path");

struct alignas(2 * alignof(std::max_align_t)) OverAligned {
  std::uint64_t* hits = nullptr;
  void operator()() const { ++*hits; }
};
static_assert(!EventFn::fits_inline<OverAligned>(),
              "the inline buffer only guarantees max_align_t alignment");

TEST(sharded_event_fn, ExactBudgetStaysInlineAndFires) {
  std::uint64_t hits = 0;
  Exactly56 callable;
  callable.hits = &hits;
  EventFn fn{callable};
  EventFn moved{std::move(fn)};
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 1u);
}

TEST(sharded_event_fn, OversizedAndOverAlignedTakeTheHeapPathCorrectly) {
  std::uint64_t hits = 0;
  OneOver big;
  big.hits = &hits;
  OverAligned aligned;
  aligned.hits = &hits;

  EventFn big_fn{big};
  EventFn aligned_fn{aligned};
  // Heap-held callables must keep their alignment and survive moves (the
  // pointer, not the callable, relocates).
  EventFn big_moved{std::move(big_fn)};
  EventFn aligned_moved{std::move(aligned_fn)};
  big_moved();
  aligned_moved();
  EXPECT_EQ(hits, 2u);
}

TEST(sharded_event_fn, MoveOnlyCaptureCrossesTheMailbox) {
  ShardedSimulator driver;
  Simulator a;
  Simulator b;
  LogicalProcess& lp_a = driver.add_shard(a);
  driver.add_shard(b);
  driver.connect(ShardId{0}, ShardId{1}, 1_ms);

  std::uint64_t seen = 0;
  auto payload = std::make_unique<std::uint64_t>(0xfeedu);
  // The callback is moved outbox -> inbox -> scratch -> target queue ->
  // fire; a copy anywhere on that path would fail to compile.
  lp_a.send(ShardId{1}, TimePoint{4000},
            [&seen, payload = std::move(payload)] { seen = *payload; });
  EXPECT_EQ(driver.run(2), 1u);
  EXPECT_EQ(seen, 0xfeedu);
}

}  // namespace
}  // namespace xanadu::sim
