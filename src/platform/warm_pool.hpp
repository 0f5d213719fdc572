#pragma once

// WarmPoolManager: warm-worker bookkeeping for the platform engine.
//
// Owns the per-function deques of idle (warm) workers, their keep-alive
// reclamation timers, the platform-wide eviction scan backing the
// OpenWhisk-style live-worker cap, and the warm-worker rebind path (paper
// Section 7 reuse extension).  The manager is purely mechanical: WHEN a
// worker is provisioned or reused is the engine's (and its policy's)
// business; THAT a parked worker is reclaimed after keep_alive, or evicted
// oldest-first under a live-worker cap, is decided here.
//
// Narrow interface by design: the manager borrows the simulator, the
// cluster, and the calibration constants.  It never touches requests,
// policies, or provisioning state; the cluster announces the workers it
// tears down.

#include <cstddef>
#include <deque>
#include <optional>

#include "cluster/cluster.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "platform/calibration.hpp"
#include "sim/simulator.hpp"

namespace xanadu::platform {

using common::EventId;
using common::FunctionId;
using common::WorkerId;

class WarmPoolManager {
 public:
  /// Borrows the simulator, cluster and calibration; all must outlive the
  /// manager.
  WarmPoolManager(sim::Simulator& sim, cluster::Cluster& cluster,
                  const PlatformCalibration& calib);

  WarmPoolManager(const WarmPoolManager&) = delete;
  WarmPoolManager& operator=(const WarmPoolManager&) = delete;

  /// Pops the oldest warm worker of `fn` (cancelling its keep-alive timer),
  /// or nullopt when the pool is empty.
  [[nodiscard]] std::optional<WorkerId> acquire(FunctionId fn);

  /// Parks `worker` warm at the back of `fn`'s pool and arms its keep-alive.
  void park(FunctionId fn, WorkerId worker);

  /// Reclaims a pooled worker (keep-alive expiry or eviction): removes it
  /// from the pool and destroys the sandbox.  No-op when the worker has
  /// already been reused or reclaimed.
  void reclaim(FunctionId fn, WorkerId worker);

  /// Reclaims pooled workers of `fn`, oldest first, until at most `target`
  /// remain warm (0 empties the pool).  Returns the number destroyed.  Used
  /// by provisioning policies that maintain a bounded pool (eviction half of
  /// a provision/evict schedule) and to discard mis-deployed sandboxes.
  std::size_t shrink_to(FunctionId fn, std::size_t target);

  /// Tears down every warm worker on the platform, in function-id order
  /// (teardown order is observable through bus events and ledger
  /// accumulation).  Workers mid-rebind are torn down too, in worker-id
  /// order after the pools: a rebinding sandbox belongs to no pool while its
  /// code reloads, and before the fix it escaped the flush only to re-park
  /// itself (fresh keep-alive timer, accruing idle ledger cost) when the
  /// rebind latency elapsed.
  void flush_all();

  /// Drops `worker` from `fn`'s pool and cancels its keep-alive timer,
  /// without destroying the sandbox (the caller owns the teardown --
  /// host-outage kills).  Returns true when the worker was actually pooled.
  bool remove_if_pooled(FunctionId fn, WorkerId worker);

  /// Evicts the platform-wide oldest-idle warm worker (live-worker cap).
  /// Returns false when every live worker is busy or provisioning.
  bool evict_oldest();

  /// Moves one idle warm worker of `from` into `to`'s pool after the rebind
  /// (code reload) latency.  The engine has already checked that the two
  /// functions share a sandbox architecture.  Returns false when `from` has
  /// no idle worker.
  bool rebind(FunctionId from, FunctionId to);

  /// Registers this subsystem's race-detector probes ("warm_pool.*"):
  /// pooled-worker totals, armed keep-alive timers, in-flight rebinds.
  void register_probes(sim::ProbeRegistry& probes) const;

  /// FNV-1a digest of the pool's exact membership -- every (function,
  /// position, worker) triple, folded in function-id order.  Two runs whose
  /// races cancel out in counters (same pool sizes, different workers)
  /// still diverge here; folded into the race detector's divergence digest.
  [[nodiscard]] std::uint64_t membership_digest() const;

  [[nodiscard]] std::size_t warm_count(FunctionId fn) const;
  /// Workers mid-rebind toward `fn` (counted as provisioning coverage so the
  /// speculation engine does not double-provision).  A worker an outage
  /// killed mid-rebind still counts until its rebind would have completed.
  [[nodiscard]] std::size_t inbound_rebinds(FunctionId fn) const;
  /// Keep-alive timers still queued: armed by park(), minus those that fired
  /// or were cancelled.  Counted apart from the pools, so a timer left queued
  /// by a worker leaving its pool without a cancel shows up here (the
  /// keep-alive cancellation regression tests lean on this).
  [[nodiscard]] std::size_t keep_alive_event_count() const;

 private:
  /// One worker whose sandbox is reloading code toward `target`.  Tracked so
  /// flush_all() can cancel the completion event and destroy the sandbox
  /// instead of letting it re-park after the flush, and counted by
  /// inbound_rebinds().
  struct InflightRebind {
    FunctionId target{};
    EventId completion{};
  };

  /// One pooled worker and its armed keep-alive timer.
  struct PooledWorker {
    WorkerId worker{};
    EventId keep_alive{};
  };
  using Pool = std::deque<PooledWorker>;

  /// Cancels a pool entry's keep-alive timer if it is still queued.
  void disarm(EventId keep_alive);
  /// Cancels the timer of a worker leaving its pool, and tears its sandbox
  /// down.
  void destroy(const PooledWorker& entry);
  /// The pool entry of `worker` in `pool`, or pool.end().
  [[nodiscard]] static Pool::iterator find_entry(Pool& pool, WorkerId worker);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const PlatformCalibration& calib_;

  /// Warm idle workers per function, oldest first.
  common::IdTable<FunctionId, Pool> warm_;
  /// Workers currently mid-rebind.
  common::IdWindow<WorkerId, InflightRebind> rebinding_;
  /// Keep-alive timers still queued (see keep_alive_event_count()).
  std::size_t armed_ = 0;
};

}  // namespace xanadu::platform
