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
//   * A sorted arrival stream (attach_arrivals) reserves one block of
//     sequence numbers and keeps only its head in the heap, with no slab
//     slot: popping the head pushes the next arrival before the popped one
//     fires.  Arrival i keeps the (when, seq) key it would have had if all
//     arrivals were scheduled up front, so every drain fires the same events
//     in the same order while the queue holds one arrival instead of all.
//
// std::priority_queue is deliberately absent (and banned by the determinism
// lint in this directory): it hides the underlying vector, which forbids
// tombstone compaction and forces a const_cast to move callbacks out of
// top().

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "sim/event_fn.hpp"
#include "sim/probe.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

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

/// A sorted run of arrivals that a Simulator fires without queueing them up
/// front; see Simulator::attach_arrivals().
class ArrivalStream {
 public:
  /// Absolute virtual time of arrival `index`; non-decreasing in `index`.
  [[nodiscard]] virtual TimePoint arrival_time(std::size_t index) const = 0;
  /// Fires arrival `index`, exactly as an event callback would.
  virtual void fire_arrival(std::size_t index) = 0;

 protected:
  ArrivalStream() = default;
  ~ArrivalStream() = default;
  ArrivalStream(const ArrivalStream&) = default;
  ArrivalStream& operator=(const ArrivalStream&) = default;
};

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

  /// Attaches `count` arrivals of `stream`, fired in (when, seq) order among
  /// the queued events.  Reserves the next `count` sequence numbers as one
  /// block, so arrival i carries the key (arrival_time(i), s0 + i) that
  /// scheduling every arrival here, in index order, would give it -- and
  /// every drain and tie group sees the same events in the same order --
  /// but only the next arrival is queued at any time.
  /// `label` names the arrivals in race-detector reports.  The stream
  /// detaches itself once its last arrival has fired, and must outlive its
  /// attachment.  Throws std::logic_error while another stream still has
  /// arrivals to fire, and std::invalid_argument when arrival 0 lies before
  /// now(); an arrival earlier than its predecessor throws
  /// std::invalid_argument from the drain that pops the predecessor.
  void attach_arrivals(ArrivalStream& stream, std::size_t count,
                       const char* label = nullptr);

  /// Drops the unfired arrivals of `stream` if it is the attached stream;
  /// otherwise has no effect.  Never throws.
  void detach_arrivals(const ArrivalStream& stream) noexcept;

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

  /// Fires every event with `when` strictly before `bound` and returns the
  /// count.  Unlike run_until(), events at exactly `bound` stay queued and
  /// the clock is NOT advanced to `bound` -- it rests at the last fired
  /// event.  interrupt() ends the drain early: workload::run_sharded_mix
  /// stops each shard this way right after its own last completion.
  /// Race-check hooks are not serviced here; the race detector replays
  /// scenarios sequentially through run()/run_until() (the determinism
  /// oracle).
  std::size_t run_before(TimePoint bound);

  /// Called from inside an event during run_before(): ends that drain once
  /// the current event returns, leaving the rest queued.  Outside
  /// run_before() it has no effect.
  void interrupt() { interrupted_ = true; }

  /// Number of events currently pending (cancelled events are excluded),
  /// counting every unfired arrival of the attached stream.
  [[nodiscard]] std::size_t pending() const {
    return live_ + (stream_count_ - stream_fired_);
  }

  /// Total number of events fired over the simulator's lifetime, arrivals
  /// included.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  // -- Introspection (tests, benchmarks) -----------------------------------

  /// Slots currently holding a live callback: pending() minus the stream's
  /// unfired arrivals, which take no slot.  Exposed so tests can pin
  /// "cancel frees the slab eagerly".
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
  /// Slot field of the arrival stream's heap entry: arrivals own no slot.
  static constexpr std::uint32_t kArrivalSlot = 0xfffffffeu;

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
  static_assert(sizeof(Slot) == 96,
                "a slab slot is EventFn (80) + label + generation + link");

  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  [[nodiscard]] static common::EventId pack_id(std::uint32_t slot,
                                               std::uint32_t generation) {
    return common::EventId{(static_cast<std::uint64_t>(generation) << 32) |
                           slot};
  }

  /// False for tombstones: cancelled events, and arrivals of a stream that
  /// was detached.
  [[nodiscard]] bool is_live(const HeapEntry& entry) const {
    if (entry.slot == kArrivalSlot) {
      return entry.seq - stream_seq_base_ < stream_count_;
    }
    return slab_[entry.slot].generation == entry.generation;
  }
  /// Discards tombstones at the heap front; returns the live front entry,
  /// or nullptr when the queue is empty.
  const HeapEntry* live_top();

  std::uint32_t acquire_slot();
  /// Destroys the slot's callback, bumps its generation (invalidating every
  /// outstanding EventId for it) and returns it to the free list.
  void release_slot(std::uint32_t slot);

  void heap_push(const HeapEntry& entry);
  void heap_pop_top();
  /// Pops the live front entry.  When it is the stream's head, the next
  /// arrival takes its place in the same step (so a tie group being
  /// collected sees it); throws, leaving the heap untouched, if that
  /// arrival is earlier than the head.
  void pop_live_top();
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
  /// advance; or the stream's fire_arrival); shared by every drain path.
  void fire_entry(const HeapEntry& entry);
  /// Forgets the attached stream (its queued head becomes a tombstone).
  void end_stream() noexcept;

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;        // Slots holding a live callback.
  std::size_t tombstones_ = 0;  // Dead heap entries awaiting compaction.
  bool interrupted_ = false;    // Set by interrupt(); read by run_before().

  // Arrival stream; stream_count_ == 0 when none is attached.  Arrival i
  // has seq stream_seq_base_ + i; the first stream_next_ arrivals have been
  // queued, and the latest of them is in the heap while stream_queued_.
  ArrivalStream* stream_ = nullptr;
  const char* stream_label_ = nullptr;
  std::uint64_t stream_seq_base_ = 0;
  std::size_t stream_count_ = 0;
  std::size_t stream_next_ = 0;
  std::size_t stream_fired_ = 0;
  bool stream_queued_ = false;

  // Race-check hooks; all nullptr (and cost-free) in normal runs.
  TieRecorder* tie_recorder_ = nullptr;
  const TiePermutation* tie_permutation_ = nullptr;
  const ProbeRegistry* probes_ = nullptr;
  /// Non-singleton groups seen so far in the current grouped drain session.
  std::size_t tie_group_counter_ = 0;
};

}  // namespace xanadu::sim
