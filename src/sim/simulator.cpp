#include "sim/simulator.hpp"

#include <utility>

#include "sim/audit.hpp"

namespace xanadu::sim {

common::EventId Simulator::schedule_at(TimePoint when, EventFn callback,
                                       const char* label) {
  if (when < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time is in the past"};
  }
  if (!callback) {
    throw std::invalid_argument{"Simulator::schedule_at: empty callback"};
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slab_[slot];
  s.callback = std::move(callback);
  s.label = label;
  heap_push(HeapEntry{when, next_seq_++, slot, s.generation});
  ++live_;
  return pack_id(slot, s.generation);
}

common::EventId Simulator::schedule_after(Duration delay, EventFn callback,
                                          const char* label) {
  return schedule_at(now_ + delay.clamped_non_negative(), std::move(callback),
                     label);
}

bool Simulator::cancel(common::EventId id) {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.value() & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id.value() >> 32);
  if (slot >= slab_.size() || slab_[slot].generation != generation) {
    return false;  // Already fired, already cancelled, or never existed.
  }
  // The callback (and everything it captured) dies now; the heap keeps a
  // generation-mismatched tombstone that pop/compact will discard.
  release_slot(slot);
  --live_;
  ++tombstones_;
  if (tombstones_ * 2 > heap_.size()) compact();
  return true;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNilSlot;
    return slot;
  }
  XANADU_INVARIANT(slab_.size() < kNilSlot, "event slab exhausted 2^32 slots");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.callback.reset();
  s.label = nullptr;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::heap_push(const HeapEntry& entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

void Simulator::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::sift_up(std::size_t index) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!fires_before(heap_[index], heap_[parent])) break;
    std::swap(heap_[index], heap_[parent]);
    index = parent;
  }
}

void Simulator::sift_down(std::size_t index) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = index * kHeapArity + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + kHeapArity, size);
    std::size_t best = first_child;
    for (std::size_t child = first_child + 1; child < last_child; ++child) {
      if (fires_before(heap_[child], heap_[best])) best = child;
    }
    if (!fires_before(heap_[best], heap_[index])) break;
    std::swap(heap_[index], heap_[best]);
    index = best;
  }
}

void Simulator::compact() {
  // (when, seq) is a total order, so rebuilding the heap cannot change the
  // pop sequence -- only drop entries that would have been skipped anyway.
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (slab_[entry.slot].generation == entry.generation) {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  tombstones_ = 0;
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

void Simulator::fire_entry(const HeapEntry& entry) {
  // Move the callback out and free the slot *before* invoking: the
  // callback may schedule new events (reusing this very slot) or grow the
  // slab, so no reference into slab_/heap_ may survive the call.
  EventFn callback = std::move(slab_[entry.slot].callback);
  release_slot(entry.slot);
  --live_;
  // Event-causality audit: the virtual clock is monotone (a popped event
  // can never fire before an already-fired one), and a live generation
  // match implies the callback is present.
  XANADU_INVARIANT(entry.when >= now_,
                   "event timestamp regressed behind the virtual clock");
  XANADU_INVARIANT(static_cast<bool>(callback),
                   "fired an event that was not live");
  now_ = entry.when;
  callback();
  ++fired_;
}

std::size_t Simulator::drain(bool bounded, TimePoint deadline) {
  if (tie_recorder_ != nullptr || tie_permutation_ != nullptr) {
    return drain_grouped(bounded, deadline);
  }
  std::size_t fired_now = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slab_[top.slot].generation != top.generation) {
      // Tombstone of a cancelled event; discard and keep looking.
      heap_pop_top();
      --tombstones_;
      continue;
    }
    if (bounded && top.when > deadline) break;
    heap_pop_top();
    fire_entry(top);
    ++fired_now;
  }
  if (bounded && now_ < deadline) now_ = deadline;
  return fired_now;
}

std::size_t Simulator::drain_grouped(bool bounded, TimePoint deadline) {
  // Grouped drain: collect every ready event sharing the front timestamp,
  // then fire the batch.  Firing in ascending-seq order (the default)
  // reproduces the normal drain byte-for-byte: collected entries precede by
  // (when, seq) anything still in the heap, and events a batch member
  // schedules at the same timestamp carry larger seqs, so they form the
  // *next* batch exactly as they would have popped after the batch in the
  // ungrouped loop.
  std::size_t fired_now = 0;
  std::vector<HeapEntry> group;
  std::vector<std::uint32_t> order;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slab_[top.slot].generation != top.generation) {
      heap_pop_top();
      --tombstones_;
      continue;
    }
    if (bounded && top.when > deadline) break;

    group.clear();
    while (!heap_.empty()) {
      const HeapEntry entry = heap_.front();
      if (slab_[entry.slot].generation != entry.generation) {
        heap_pop_top();
        --tombstones_;
        continue;
      }
      if (entry.when != top.when) break;
      group.push_back(entry);  // Popping yields ascending seq.
      heap_pop_top();
    }

    const bool is_tie = group.size() > 1;
    const std::size_t group_index = tie_group_counter_;
    if (is_tie) ++tie_group_counter_;

    // Record labels before firing: firing releases the slots.
    TieGroup* record = nullptr;
    if (is_tie && tie_recorder_ != nullptr) {
      TieGroup tie;
      tie.index = group_index;
      tie.when = top.when;
      tie.events.reserve(group.size());
      for (const HeapEntry& entry : group) {
        const char* label = slab_[entry.slot].label;
        tie.events.push_back(
            TieEvent{entry.seq, label != nullptr ? label : ""});
      }
      tie_recorder_->groups.push_back(std::move(tie));
      record = &tie_recorder_->groups.back();
    }

    order.clear();
    for (std::uint32_t i = 0; i < group.size(); ++i) order.push_back(i);
    if (is_tie && tie_permutation_ != nullptr &&
        tie_permutation_->group_index == group_index &&
        tie_permutation_->order.size() == group.size()) {
      order = tie_permutation_->order;
    }

    for (const std::uint32_t position : order) {
      XANADU_INVARIANT(position < group.size(),
                       "tie permutation position out of range");
      if (position >= group.size()) continue;
      const HeapEntry& entry = group[position];
      if (slab_[entry.slot].generation != entry.generation) {
        // Cancelled by an earlier member of this very batch; its heap entry
        // is already extracted, so no tombstone bookkeeping applies.
        continue;
      }
      fire_entry(entry);
      ++fired_now;
    }

    if (record != nullptr && probes_ != nullptr) {
      // `record` stays valid: firing cannot re-enter drain (the simulator
      // is single-threaded and run() is not re-entrant), so no group was
      // appended since ours.
      record->probes_after = probes_->sample();
    }
  }
  if (bounded && now_ < deadline) now_ = deadline;
  return fired_now;
}

std::optional<TimePoint> Simulator::peek_next_time() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slab_[top.slot].generation != top.generation) {
      heap_pop_top();
      --tombstones_;
      continue;
    }
    return top.when;
  }
  return std::nullopt;
}

std::size_t Simulator::run_before(TimePoint bound) {
  std::size_t fired_now = 0;
  interrupted_ = false;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slab_[top.slot].generation != top.generation) {
      heap_pop_top();
      --tombstones_;
      continue;
    }
    if (top.when >= bound) break;
    heap_pop_top();
    fire_entry(top);
    ++fired_now;
    if (interrupted_) break;
  }
  interrupted_ = false;
  return fired_now;
}

std::size_t Simulator::run() { return drain(/*bounded=*/false, TimePoint{}); }

std::size_t Simulator::run_until(TimePoint deadline) {
  if (deadline < now_) {
    throw std::invalid_argument{"Simulator::run_until: deadline is in the past"};
  }
  return drain(/*bounded=*/true, deadline);
}

}  // namespace xanadu::sim
