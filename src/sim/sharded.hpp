#pragma once

// ShardedSimulator: a conservative parallel driver over per-shard Simulators.
//
// Classic conservative PDES (Chandy-Misra-Bryant earliest input time),
// specialised to this codebase's invariants:
//
//   * Each shard (LogicalProcess) owns a full Simulator -- the same
//     slab-backed queue, the same schedule_at/cancel/EventFn API -- and all
//     of the mutable state reachable from its events.  Shards share nothing;
//     the only cross-shard path is LogicalProcess::send() over a *channel*.
//   * Channels are declared up front with connect(from, to, min_latency):
//     every send on the channel lands at least `min_latency` past the
//     sender's clock.  For the platform's MessageBus bridge the minimum is
//     the bus delivery latency (jitter is additive), and bridge_topic()
//     declares the channel itself.
//   * The run proceeds in rounds.  At each barrier the driver computes every
//     shard's safe bound
//
//       B_j = min over channels (i -> j, L) of (min(T_i, B_i) + L)
//
//     where T_i is the earliest event shard i could still fire (its queue
//     head or its earliest undelivered inbound message; +inf once halted).
//     The recursion is a shortest-path fixpoint, so cyclic channel graphs
//     are covered; a shard with no inbound channel gets B = +inf, so only
//     the in-flight cap below ever stops it short of its own completion.
//     Inside the round each shard first merges its inbound mail with
//     `when < B_j`, then fires every event strictly before B_j
//     (Simulator::run_before).  No message can arrive below B_j afterwards:
//     anything not yet sent comes from an event at or past T_i, hence
//     lands at or past T_i + L.
//   * The merge happens in the target's own task, in (when, source, index)
//     order -- `index` being a per-source monotone counter -- the same total
//     order workload::TrafficMix uses for arrival merges.  Since every
//     message below B_j has been sent by the barrier, each target sees its
//     mail in that global order no matter how many threads ran the round.
//   * In-flight cap: a channel holds at most kChannelCap undelivered
//     messages (give or take the sends of one event).  At the barrier the
//     driver counts, per channel, the mail the target will not consume this
//     round; a source whose channel is full sits the round out, and a source
//     that fills its channel mid-round yields after the event that did it.
//     When every shard with work is held back that way, each full channel
//     gets one more cap's worth for the round, so the cap can delay a shard
//     but never deadlock the run.
//
// Determinism: bounds, caps and halts are decided from virtual-time state
// only (queue heads, message timestamps, counts taken at the barrier), so
// every run -- sequential (threads=1) or parallel (any thread count) --
// executes the same rounds and fires the same events at the same virtual
// times in the same per-shard order.  Trace/state digests, rounds and event
// counts are byte-identical; tests/sharded_determinism_test.cpp pins this
// across threads x seeds.
//
// Progress: the shard holding the fleet-wide minimum T* has B > T* (every
// latency is positive), so each round fires at least one event or merges at
// least one message unless every shard is halted or empty.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/logical_process.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {

/// An in-flight cross-shard message, buffered between the send and the
/// round whose bound lets the target merge it.
struct ShardMessage {
  TimePoint when;
  ShardId source = 0;
  std::uint64_t index = 0;  // Per-source monotone send counter.
  const char* label = nullptr;
  EventFn fn;
};

class ShardedSimulator {
 public:
  /// Undelivered messages one channel may hold before its source yields.
  /// A constant, not a knob: it bounds mailbox memory (a tenant shard with
  /// no inbound channel would otherwise mail its whole run ahead of the
  /// fleet) and changes neither results nor digests.
  static constexpr std::uint64_t kChannelCap = 512;

  ShardedSimulator() = default;
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Registers `sim` as the next shard and returns its logical process.
  /// The simulator must outlive this driver.  All shards must be added
  /// before the first connect(), send() or run().
  LogicalProcess& add_shard(Simulator& sim);

  /// Declares the channel `from` -> `to`: every send on it lands at least
  /// `min_latency` (> 0) past the sender's clock.  Declaring a channel
  /// again keeps the smaller latency.  Not callable during run().
  void connect(ShardId from, ShardId to, Duration min_latency);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] LogicalProcess& shard(ShardId id) { return *shards_.at(id); }

  /// Drains every shard until each one is empty or halted (see
  /// LogicalProcess::halt / stop_at), using `threads` OS threads, caller
  /// included.  threads == 1 runs everything on the calling thread -- the
  /// sequential reference path.  Thread count never affects results, only
  /// wall-clock time.  Returns the number of events fired across all shards
  /// during this call.  Per-shard halts and horizons are cleared on return.
  std::size_t run(unsigned threads);

  // -- Introspection (driver thread, outside run()) --------------------------

  /// Rounds executed over the driver's lifetime: one barrier each.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Cross-shard messages merged into target queues so far.
  [[nodiscard]] std::uint64_t messages_delivered() const;

 private:
  friend class LogicalProcess;

  /// One declared channel: the mail of one (source, target) pair.
  struct Channel {
    Duration latency = Duration::zero();  // zero: no channel declared.
    /// Written by the source's task during a round.
    std::vector<ShardMessage> outbox;
    /// Sent, not yet merged.  Filled from the outbox at the barrier; only
    /// the target's task touches it during a round.
    std::vector<ShardMessage> inbox;
    /// Sends the source has left this round before it yields.
    std::uint64_t budget = 0;
  };

  /// Sort key of one inbox message during a merge.
  struct MergeKey {
    TimePoint when;
    ShardId source = 0;
    std::uint64_t index = 0;
    ShardMessage* message = nullptr;
  };

  /// Per-shard plan for one round, decided at the barrier.
  struct RoundPlan {
    TimePoint bound;
    bool work = false;     // Has mail to merge or events to fire.
    bool held = false;     // Source sitting the round out at the cap.
  };

  [[nodiscard]] Channel& channel(ShardId from, ShardId to) {
    return channels_[static_cast<std::size_t>(from) * shards_.size() + to];
  }
  /// Buffers a message on the (from, to) channel.  Called by
  /// LogicalProcess::send() on the thread currently draining shard `from`.
  void enqueue(ShardId from, ShardId to, ShardMessage message);
  void ensure_channels();
  /// Barrier work: moves outboxes to inboxes, computes every bound and
  /// decides which shards run and with what send budget.  Returns false
  /// when no shard has anything left to do.
  bool plan_round();
  /// One shard's share of a round: merge inbound mail below its bound,
  /// fire events below it, apply its horizon.
  void run_shard(ShardId id);
  /// Moves the inbound mail of `target` below `bound` into its queue in
  /// (when, source, index) order.
  void merge_into(ShardId target, TimePoint bound);
  /// Leaves run(): clears the running flag and every per-run limit.
  void end_run();

  std::vector<std::unique_ptr<LogicalProcess>> shards_;
  /// Flat [source * shard_count + target] channel table.
  std::vector<Channel> channels_;
  /// Per-target merge scratch, reused across rounds.
  std::vector<std::vector<MergeKey>> scratch_;
  std::vector<RoundPlan> plan_;
  /// Per-shard tallies, each written only by the thread owning that shard.
  std::vector<std::size_t> fired_per_shard_;
  std::vector<std::uint64_t> delivered_per_shard_;
  std::uint64_t rounds_ = 0;
  bool running_ = false;
};

}  // namespace xanadu::sim
