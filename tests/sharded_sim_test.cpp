// Sim-layer tests for sharded runs: sim::fork_join, which spreads
// independent per-shard tasks over OS threads; interrupt(), which ends the
// run() or run_until() drain a shard (like every workload run) is driven
// with at its last completion; and the EventFn small-buffer
// boundaries (a shard's callbacks are created on the calling thread and
// fire on whichever thread runs that shard, so the inline/heap split and
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
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using namespace xanadu::sim::literals;

// --------------------------------------------------------------- interrupt --

TEST(sharded_window_primitives,
     InterruptedRunUntilRestsTheClockAtTheInterruptingEvent) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  sim.schedule_at(TimePoint{10}, [&] { fired.push_back(10); });
  sim.schedule_at(TimePoint{20}, [&] {
    fired.push_back(20);
    sim.interrupt();
  });
  sim.schedule_at(TimePoint{30}, [&] { fired.push_back(30); });

  // The clock rests at the interrupting event, not at the deadline...
  EXPECT_EQ(sim.run_until(TimePoint{1000}), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(sim.now(), TimePoint{20});
  EXPECT_EQ(sim.pending(), 1u);

  // ...while an uninterrupted run_until still parks it on the deadline.
  EXPECT_EQ(sim.run_until(TimePoint{1000}), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(sim.now(), TimePoint{1000});
}

TEST(sharded_window_primitives, InterruptEndsRunAfterTheCurrentEvent) {
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
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(sim.now(), TimePoint{20});

  // An interrupt outside a drain does not leak into the next drain.
  sim.interrupt();
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10, 20, 21, 30}));
}

TEST(sharded_window_primitives, AGroupedDrainCutShortFiresItsRestInSeqOrder) {
  // Four events tie at 20 and the grouped drain collects all four.  B
  // interrupts: in seq order after A, under the permutation after D (which
  // would go on with C, then A).  The unfired members go back into the
  // queue under their own keys, so the next drain fires them as the plain
  // drain would, in seq order.
  for (const bool permuted : {false, true}) {
    Simulator sim;
    TieRecorder recorder;
    TiePermutation shuffle{0, {3, 1, 2, 0}};
    sim.set_tie_recorder(&recorder);
    if (permuted) sim.set_tie_permutation(&shuffle);
    std::string order;
    sim.schedule_at(TimePoint{20}, [&] { order += 'A'; });
    sim.schedule_at(TimePoint{20}, [&] {
      order += 'B';
      sim.interrupt();
    });
    sim.schedule_at(TimePoint{20}, [&] { order += 'C'; });
    sim.schedule_at(TimePoint{20}, [&] { order += 'D'; });
    sim.schedule_at(TimePoint{30}, [&] { order += 'E'; });

    EXPECT_EQ(sim.run_until(TimePoint{1000}), 2u);
    EXPECT_EQ(order, permuted ? "DB" : "AB");
    EXPECT_EQ(sim.now(), TimePoint{20});
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(order, permuted ? "DBACE" : "ABCDE");
    ASSERT_EQ(recorder.groups.size(), 2u) << "the rest forms its own group";
    EXPECT_EQ(recorder.groups[0].events.size(), 4u);
    EXPECT_EQ(recorder.groups[1].events.size(), 2u);
  }
}

// ------------------------------------------------------------ fork_join ---

TEST(sharded_driver, RejectsBadConfiguration) {
  std::size_t runs = 0;
  const auto count_runs = [&runs](std::size_t) { ++runs; };
  EXPECT_THROW(fork_join(2, 0, count_runs), std::invalid_argument);
  EXPECT_EQ(runs, 0u);
  fork_join(0, 4, count_runs);  // No shards: trivially done.
  EXPECT_EQ(runs, 0u);
  fork_join(3, 1, count_runs);
  EXPECT_EQ(runs, 3u);
}

TEST(sharded_driver, HaltAndStopAtBoundEachShard) {
  // Each shard's task applies its own limit: shard a stops at a horizon
  // (run_until fires the events at or before it and parks the clock
  // there), shard b interrupts its drain from inside its fourth event.
  // Neither limit reaches the other shard.
  Simulator a;
  Simulator b;
  std::size_t fired_a = 0;
  std::size_t fired_b = 0;
  for (int i = 1; i <= 10; ++i) {
    const TimePoint at{static_cast<std::int64_t>(i) * 10'000};
    a.schedule_at(at, [&] { ++fired_a; });
    b.schedule_at(at, [&] {
      // Stops after the 40 ms event, which still completes.
      if (++fired_b == 4) b.interrupt();
    });
  }
  std::array<std::size_t, 2> fired{};
  fork_join(2, 2, [&](std::size_t shard) {
    fired[shard] = shard == 0 ? a.run_until(TimePoint{30'000}) : b.run();
  });
  EXPECT_EQ(fired, (std::array<std::size_t, 2>{3, 4}));
  EXPECT_EQ(fired_a, 3u);
  EXPECT_EQ(a.now(), TimePoint{30'000});
  EXPECT_EQ(fired_b, 4u);
  EXPECT_EQ(b.now(), TimePoint{40'000});

  // Limits last one drain: the next one runs both shards to empty.
  fork_join(2, 1, [&](std::size_t shard) {
    fired[shard] = shard == 0 ? a.run() : b.run();
  });
  EXPECT_EQ(fired, (std::array<std::size_t, 2>{7, 6}));
  EXPECT_EQ(fired_a, 10u);
  EXPECT_EQ(fired_b, 10u);

  // A horizon past every event still parks the clock on it; an interrupt
  // outside a drain is a no-op.
  b.interrupt();
  a.schedule_at(TimePoint{200'000}, [&] { ++fired_a; });
  b.schedule_at(TimePoint{200'000}, [&] { ++fired_b; });
  fork_join(2, 2, [&](std::size_t shard) {
    fired[shard] = shard == 0 ? a.run_until(TimePoint{500'000}) : b.run();
  });
  EXPECT_EQ(fired, (std::array<std::size_t, 2>{1, 1}));
  EXPECT_EQ(a.now(), TimePoint{500'000});
  EXPECT_EQ(b.now(), TimePoint{200'000});
}

/// Five shards of self-scheduling chains plus local chatter, each logging
/// its own firing times; the per-shard logs and the thread each task ran on.
struct ChatterRun {
  std::array<std::vector<std::uint64_t>, 5> logs;
  std::array<std::thread::id, 5> ran_on;
};

void chain(Simulator* sim, std::vector<std::uint64_t>* log, int remaining,
           Duration gap) {
  log->push_back(sim->now().micros());
  if (remaining <= 0) return;
  sim->schedule_after(
      gap, [sim, log, remaining, gap] { chain(sim, log, remaining - 1, gap); },
      "test.chain");
}

ChatterRun run_chatter(unsigned threads) {
  std::array<Simulator, 5> sims;
  ChatterRun run;
  for (std::size_t s = 0; s < sims.size(); ++s) {
    Simulator* sim = &sims[s];
    std::vector<std::uint64_t>* log = &run.logs[s];
    const Duration gap = Duration::from_micros(
        static_cast<std::int64_t>(300 + 97 * s));
    sim->schedule_at(TimePoint{1000}, [sim, log, gap] {
      chain(sim, log, 40, gap);
    });
    for (int i = 0; i < 50; ++i) {
      sim->schedule_at(
          TimePoint{static_cast<std::int64_t>(700 + i * (37 + 4 * s))},
          [sim, log] { log->push_back(sim->now().micros() + 1); });
    }
  }
  fork_join(sims.size(), threads, [&](std::size_t s) {
    run.ran_on[s] = std::this_thread::get_id();
    sims[s].run();
  });
  return run;
}

TEST(sharded_driver, ThreadCountNeverChangesTheTrace) {
  const ChatterRun base = run_chatter(1);
  for (const std::vector<std::uint64_t>& log : base.logs) {
    ASSERT_EQ(log.size(), 91u);
  }
  for (const std::thread::id id : base.ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }

  for (const unsigned threads : {2u, 4u, 8u}) {
    const ChatterRun run = run_chatter(threads);
    EXPECT_EQ(run.logs, base.logs) << "threads=" << threads;
    // min(threads, shards) participants, the caller running shard 0.
    const std::set<std::thread::id> used(run.ran_on.begin(),
                                         run.ran_on.end());
    EXPECT_EQ(used.size(), std::min<std::size_t>(threads, 5))
        << "threads=" << threads;
    EXPECT_EQ(run.ran_on[0], std::this_thread::get_id());
  }
}

TEST(sharded_driver, WorkerExceptionsSurfaceOnTheCaller) {
  std::array<Simulator, 4> sims;
  std::array<bool, 4> finished{};
  for (std::size_t s = 0; s < sims.size(); ++s) {
    sims[s].schedule_at(TimePoint{1000}, [s] {
      if (s == 1 || s == 2) {
        throw std::runtime_error{"boom on shard " + std::to_string(s)};
      }
    });
  }
  // Shards 1 and 2 throw on worker threads.  Every task still runs to its
  // end, and the caller sees the lowest-index shard's exception.
  try {
    fork_join(sims.size(), 4, [&](std::size_t s) {
      finished[s] = true;
      sims[s].run();
    });
    FAIL() << "fork_join swallowed the shards' exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string{error.what()}, "boom on shard 1");
  }
  EXPECT_EQ(finished, (std::array<bool, 4>{true, true, true, true}));
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

TEST(sharded_event_fn, MoveOnlyCaptureFiresOnAWorkerThread) {
  std::array<Simulator, 2> sims;
  std::uint64_t seen = 0;
  auto payload = std::make_unique<std::uint64_t>(0xfeedu);
  // Scheduled here, on the calling thread; moved into the slab, out of it
  // and fired on the worker thread that runs shard 1.  A copy anywhere on
  // that path would fail to compile.
  sims[1].schedule_at(TimePoint{4000}, [&seen, payload = std::move(payload)] {
    seen = *payload;
  });
  std::array<std::size_t, 2> fired{};
  fork_join(sims.size(), 2,
            [&](std::size_t s) { fired[s] = sims[s].run(); });
  EXPECT_EQ(fired, (std::array<std::size_t, 2>{0, 1}));
  EXPECT_EQ(seen, 0xfeedu);
}

}  // namespace
}  // namespace xanadu::sim
