#pragma once

// LogicalProcess: one shard of a conservative parallel discrete-event
// simulation.
//
// A logical process wraps one Simulator -- a shard-local, slab-backed event
// queue -- and adds the cross-shard capabilities: send(), which routes an
// event to another shard over a declared channel of the owning
// ShardedSimulator instead of scheduling it directly, and the per-shard run
// limits halt() and stop_at().  Everything scheduled on the local simulator
// stays invisible to other shards, which is what lets the driver drain every
// shard in parallel up to its own safe bound.
//
// See sim/sharded.hpp for the channel/bound/mailbox contract and the
// determinism argument; ARCHITECTURE.md "Parallel simulation" has the prose
// version.

#include <cstdint>
#include <optional>

#include "sim/event_fn.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

class Simulator;
class ShardedSimulator;

class LogicalProcess {
 public:
  LogicalProcess(const LogicalProcess&) = delete;
  LogicalProcess& operator=(const LogicalProcess&) = delete;

  [[nodiscard]] ShardId shard() const { return id_; }
  [[nodiscard]] Simulator& simulator() { return *sim_; }
  [[nodiscard]] ShardedSimulator& owner() { return *owner_; }

  /// Cross-shard send: run `fn` on shard `to` at absolute virtual time
  /// `when`, over the channel declared with ShardedSimulator::connect(); a
  /// send without a channel throws std::logic_error.  The conservative
  /// contract: during run(), `when` must lie at least the channel's latency
  /// past this shard's clock, so the target's safe bound (computed from that
  /// latency) is never violated; violations throw std::logic_error.  Sends
  /// made outside run() (setup wiring, teardown) may carry any time and are
  /// delivered no earlier than the target's clock.
  ///
  /// Sends are buffered on the channel's outbox, written only by the
  /// sending shard's drain thread -- no locks on this path -- and merged
  /// into the target's queue once they fall below its bound, in
  /// (when, source, index) order, the same total order workload::TrafficMix
  /// uses, so the merge is identical no matter how many threads ran.
  void send(ShardId to, TimePoint when, EventFn fn,
            const char* label = nullptr);

  /// Messages sent by this shard over its lifetime (the `index` component
  /// of the merge order).
  [[nodiscard]] std::uint64_t sent_count() const { return next_index_; }

  /// From inside one of this shard's events: stop draining this shard once
  /// the current event returns, for the rest of the current run().  Its
  /// clock stays at that event.  No effect outside run().
  void halt();

  /// Limit for the next run(): the shard fires its events at or before
  /// `horizon` only, then its clock rests at `horizon` and it halts.
  void stop_at(TimePoint horizon) { horizon_ = horizon; }

 private:
  friend class ShardedSimulator;  // Sole creator; shards are driver-owned.

  LogicalProcess(ShardedSimulator& owner, Simulator& sim, ShardId id)
      : owner_(&owner), sim_(&sim), id_(id) {}

  ShardedSimulator* owner_;
  Simulator* sim_;
  ShardId id_;
  std::uint64_t next_index_ = 0;
  std::optional<TimePoint> horizon_;
  bool halted_ = false;
};

}  // namespace xanadu::sim
