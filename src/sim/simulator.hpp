#pragma once

// Deterministic discrete-event simulator.
//
// The simulator owns a virtual clock and an event queue.  Components schedule
// callbacks at absolute or relative virtual times; run() drains the queue in
// time order, breaking ties by scheduling sequence so that identical inputs
// always produce identical event interleavings.
//
// Events can be cancelled by id -- the JIT deployment planner relies on this
// to abort planned speculative provisioning when a prediction miss is
// detected (paper Section 3.2.2: "JIT deployment stops all planned proactive
// provisioning as soon as it detects a prediction miss").
//
// Storage layout (the replay hot path, see ARCHITECTURE.md "Event-queue
// design"):
//
//   * Callbacks live in a slab of recyclable slots; each slot carries a
//     generation counter that is bumped every time the slot is released
//     (fired OR cancelled).  An EventId packs (slot, generation), so
//     cancel() is an O(1) generation compare-and-bump -- no hash sets --
//     and the captured state is freed eagerly at cancel time instead of
//     lingering until the queue entry surfaces.
//   * The ready queue is a 4-ary min-heap of 24-byte POD entries
//     (when, seq, slot, generation) ordered by (when, seq).  Since that
//     order is total, heap shape never influences pop order, which keeps
//     seed-replay digests bit-identical across queue implementations.
//   * A cancelled event leaves a tombstone entry in the heap; tombstones
//     are skipped on pop and compacted in bulk once they outnumber half the
//     heap, so a cancel-heavy speculation workload cannot grow the queue
//     without bound.
//
// std::priority_queue is deliberately absent (and banned by the determinism
// lint in this directory): it hides the underlying vector, which forbids
// tombstone compaction and forces a const_cast to move callbacks out of
// top().

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "sim/event_fn.hpp"
#include "sim/probe.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

/// Compatibility alias: a few call sites (and tests) still pass
/// std::function; EventFn absorbs it (an empty one stays empty).
using EventCallback = std::function<void()>;

// -- Race-check hooks --------------------------------------------------------
//
// Same-virtual-timestamp events are ordered by scheduling sequence, which
// makes replay deterministic but does NOT prove the order is harmless: a tie
// whose pop order silently changes engine state is a latent race.  The
// simulator can therefore run in a *grouped* drain mode (enabled by
// attaching a TieRecorder and/or TiePermutation) that collects every ready
// event sharing one timestamp before firing, records non-singleton groups,
// and optionally fires one designated group in a permuted order.  Firing a
// group in ascending-seq order is byte-identical to the normal drain, so
// enabling recording alone never perturbs a run.  The replay harness on top
// lives in sim/race_detector.hpp.

/// One event of a same-timestamp tie group, in baseline (seq) order.
struct TieEvent {
  std::uint64_t seq = 0;
  /// Scheduling-site label ("warm_pool.keep_alive"), or "" when unlabeled.
  std::string label;
};

/// One observed non-singleton tie group.
struct TieGroup {
  /// 0-based index among non-singleton groups, in drain order.  Stable
  /// between a baseline run and a replay up to the first permuted group.
  std::size_t index = 0;
  TimePoint when;
  std::vector<TieEvent> events;
  /// Probe snapshot taken right after the group fired (empty when no
  /// ProbeRegistry is attached); used to localise a divergence.
  std::vector<ProbeSample> probes_after;
};

/// Collects non-singleton tie groups during a grouped drain.
struct TieRecorder {
  std::vector<TieGroup> groups;
};

/// Directs a replay: fire non-singleton tie group `group_index` in
/// `order` (positions into the group's ascending-seq event list) instead of
/// ascending seq.  All other groups keep the baseline order.
struct TiePermutation {
  std::size_t group_index = 0;
  std::vector<std::uint32_t> order;
};

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.  Monotonically non-decreasing across run calls.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `callback` at absolute time `when`.  `when` must not be in
  /// the past.  Returns an id usable with cancel().  `label` (a string
  /// literal or other pointer outliving the event) names the scheduling
  /// site in race-detector reports; it never affects execution.
  common::EventId schedule_at(TimePoint when, EventFn callback,
                              const char* label = nullptr);

  /// Schedules `callback` after `delay` (clamped to be non-negative).
  common::EventId schedule_after(Duration delay, EventFn callback,
                                 const char* label = nullptr);

  /// Cancels a pending event.  Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired, already-cancelled or unknown
  /// event returns false and has no effect.  O(1): the callback (and any
  /// state it captured) is destroyed immediately; the queue keeps a
  /// tombstone that is skipped or compacted later.
  bool cancel(common::EventId id);

  /// Runs until the queue is empty.  Returns the number of events fired.
  std::size_t run();

  /// Runs until the queue is empty or virtual time would pass `deadline`.
  /// Events at exactly `deadline` are fired.  The clock is advanced to
  /// `deadline` on return.
  std::size_t run_until(TimePoint deadline);

  /// Earliest pending event time, or nullopt when the queue is empty.
  /// Non-const because tombstones of cancelled events surfacing at the heap
  /// front are discarded on the way (keeping the amortised O(1) cancel
  /// accounting); the observable state is unchanged.
  [[nodiscard]] std::optional<TimePoint> peek_next_time();

  /// Fires every event with `when` strictly before `bound` and returns the
  /// count.  Unlike run_until(), events at exactly `bound` stay queued and
  /// the clock is NOT advanced to `bound` -- it rests at the last fired
  /// event.  This is the round-drain primitive of sim::ShardedSimulator:
  /// a shard's bound is the earliest time a message could still reach it,
  /// and mail merged in a later round may land anywhere at or past that
  /// bound, so padding the clock forward would reject it.  interrupt() ends
  /// the drain early.  Race-check hooks are not serviced here; the race
  /// detector replays scenarios sequentially through run()/run_until() (the
  /// determinism oracle).
  std::size_t run_before(TimePoint bound);

  /// Called from inside an event during run_before(): ends that drain once
  /// the current event returns, leaving the rest queued.  Outside
  /// run_before() it has no effect.
  void interrupt() { interrupted_ = true; }

  /// Number of events currently pending (cancelled events are excluded).
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total number of events fired over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  // -- Introspection (tests, benchmarks) -----------------------------------

  /// Slots currently holding a live callback.  Equal to pending(); exposed
  /// separately so tests can pin "cancel frees the slab eagerly".
  [[nodiscard]] std::size_t slab_occupancy() const { return live_; }
  /// Total slots ever allocated (high-water mark of concurrent events).
  [[nodiscard]] std::size_t slab_capacity() const { return slab_.size(); }
  /// Heap entries including tombstones awaiting compaction.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  /// Tombstones currently buried in the heap.
  [[nodiscard]] std::size_t tombstone_count() const { return tombstones_; }

  // -- Race-check hooks (see sim/race_detector.hpp) ------------------------

  /// Attaching a recorder switches drain into grouped mode and appends every
  /// non-singleton same-timestamp group to `recorder->groups`.  Pass nullptr
  /// to detach.  The recorder must outlive the attachment.
  void set_tie_recorder(TieRecorder* recorder) {
    tie_recorder_ = recorder;
    tie_group_counter_ = 0;
  }

  /// Attaching a permutation switches drain into grouped mode and fires the
  /// designated group in the permuted order.  Pass nullptr to detach.  The
  /// permutation must outlive the attachment.
  void set_tie_permutation(const TiePermutation* permutation) {
    tie_permutation_ = permutation;
    tie_group_counter_ = 0;
  }

  /// Probes sampled into TieGroup::probes_after when recording.  The
  /// registry must outlive the attachment; samplers must be pure reads.
  void set_probe_registry(const ProbeRegistry* probes) { probes_ = probes; }

 private:
  static constexpr std::size_t kHeapArity = 4;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// 24-byte POD heap entry; the callback stays in the slab so sifts move
  /// trivially-copyable data only.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;       // Tie-break: FIFO among same-time events.
    std::uint32_t slot;      // Slab index of the callback.
    std::uint32_t generation;  // Must match the slot to be live.
  };

  struct Slot {
    EventFn callback;
    /// Scheduling-site label for race reports; not owned, may be nullptr.
    const char* label = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
  };

  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  [[nodiscard]] static common::EventId pack_id(std::uint32_t slot,
                                               std::uint32_t generation) {
    return common::EventId{(static_cast<std::uint64_t>(generation) << 32) |
                           slot};
  }

  std::uint32_t acquire_slot();
  /// Destroys the slot's callback, bumps its generation (invalidating every
  /// outstanding EventId for it) and returns it to the free list.
  void release_slot(std::uint32_t slot);

  void heap_push(const HeapEntry& entry);
  void heap_pop_top();
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  /// Drops every tombstone from the heap and re-heapifies.  Called once
  /// tombstones outnumber live entries (amortised O(1) per cancel).
  void compact();

  /// Pops ready events and fires them; shared by run/run_until.
  std::size_t drain(bool bounded, TimePoint deadline);
  /// Grouped drain used when a tie recorder or permutation is attached:
  /// same result as drain() when every group fires in seq order.
  std::size_t drain_grouped(bool bounded, TimePoint deadline);
  /// Fires one extracted heap entry (callback move-out, slot release, clock
  /// advance); shared by both drain paths.
  void fire_entry(const HeapEntry& entry);

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;        // Slots holding a live callback.
  std::size_t tombstones_ = 0;  // Dead heap entries awaiting compaction.
  bool interrupted_ = false;    // Set by interrupt(); read by run_before().

  // Race-check hooks; all nullptr (and cost-free) in normal runs.
  TieRecorder* tie_recorder_ = nullptr;
  const TiePermutation* tie_permutation_ = nullptr;
  const ProbeRegistry* probes_ = nullptr;
  /// Non-singleton groups seen so far in the current grouped drain session.
  std::size_t tie_group_counter_ = 0;
};

}  // namespace xanadu::sim
