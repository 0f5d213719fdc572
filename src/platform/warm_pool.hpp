#pragma once

// WarmPoolManager: warm-worker bookkeeping for the platform engine.
//
// Owns the per-function pools of idle (warm) workers, their keep-alive
// reclamation, the platform-wide eviction scan backing the OpenWhisk-style
// live-worker cap, and the warm-worker rebind path (paper Section 7 reuse
// extension).  The manager is purely mechanical: WHEN a worker is
// provisioned or reused is the engine's (and its policy's) business; THAT a
// parked worker is reclaimed after keep_alive, or evicted oldest-first under
// a live-worker cap, is decided here.
//
// Keep-alive runs on one timer per pool.  A pool is FIFO and the engine has
// one keep-alive setting, so its workers expire in pool order: park()
// reserves the event key a per-worker timer would have had, and only the
// pool's oldest worker has its key in the queue.  Every reclaim fires at
// the key it would have fired at with one timer per worker.
//
// Narrow interface by design: the manager borrows the simulator, the
// cluster, and the calibration constants.  It never touches requests,
// policies, or provisioning state; the cluster announces the workers it
// tears down.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

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

  /// Pops the oldest warm worker of `fn`, or nullopt when the pool is
  /// empty.  The pool's timer stays queued: it fires as a no-op at the
  /// popped worker's expiry and moves on to the pool's next worker, if any.
  [[nodiscard]] std::optional<WorkerId> acquire(FunctionId fn);

  /// Parks `worker` warm at the back of `fn`'s pool.  Reserves the key its
  /// keep-alive expiry fires under, and queues the pool's timer when none
  /// is queued.
  void park(FunctionId fn, WorkerId worker);

  /// Reclaims pooled workers of `fn`, oldest first, until at most `target`
  /// remain warm (0 empties the pool, and cancels its timer).  Returns the
  /// number destroyed.  Used by provisioning policies that maintain a
  /// bounded pool (eviction half of a provision/evict schedule) and to
  /// discard mis-deployed sandboxes.
  std::size_t shrink_to(FunctionId fn, std::size_t target);

  /// Tears down every warm worker on the platform, in function-id order
  /// (teardown order is observable through bus events and ledger
  /// accumulation), and cancels every pool's timer.  Workers mid-rebind
  /// are torn down too, in worker-id order after the pools: a rebinding
  /// sandbox belongs to no pool while its code reloads, and before the fix
  /// it escaped the flush only to re-park itself (fresh keep-alive timer,
  /// accruing idle ledger cost) when the rebind latency elapsed.
  void flush_all();

  /// Drops `worker` from `fn`'s pool, without destroying the sandbox (the
  /// caller owns the teardown -- host-outage kills); emptying the pool
  /// cancels its timer.  Returns true when the worker was actually pooled.
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
  /// pooled-worker totals, queued pool timers (keep_alive_event_count()),
  /// in-flight rebinds.
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
  /// Pool timers queued: at most one per pool, and one for each pool that
  /// holds a worker.  A pool that acquire() or rebind() emptied may keep its
  /// timer until it fires; any other removal that empties a pool cancels
  /// it, so a flush leaves 0.  Counted apart from the pools (up when a timer
  /// is queued, down when it fires or is cancelled), so a timer a removal
  /// failed to cancel shows up here (the keep-alive cancellation regression
  /// tests lean on this).
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

  /// One pooled worker and the key its keep-alive expiry fires under,
  /// reserved by park().
  struct PooledWorker {
    WorkerId worker{};
    sim::EventKey expiry;
  };

  /// A pool's workers, oldest first, in a ring buffer: popping the oldest
  /// is O(1), and the buffer grows to the most workers the pool has held
  /// at once and then stops allocating.
  class IdleRing {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Entry `index`, counted from the oldest.
    [[nodiscard]] const PooledWorker& operator[](std::size_t index) const {
      return slots_[(head_ + index) & (slots_.size() - 1)];
    }
    [[nodiscard]] const PooledWorker& front() const { return (*this)[0]; }
    void push_back(const PooledWorker& entry);
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }
    /// Removes entry `index`, keeping the others in order.
    void erase(std::size_t index);
    /// The index of `worker`'s entry, or size() when it is not pooled.
    [[nodiscard]] std::size_t find(WorkerId worker) const;

   private:
    std::vector<PooledWorker> slots_;  // Size 0 or a power of two.
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Pool {
    IdleRing idle;
    /// The pool's keep-alive timer while it is queued, under the expiry key
    /// of the worker that headed the pool when it was queued.
    EventId timer{};
  };

  /// Queues `pool`'s timer at its oldest worker's expiry key.
  void arm(FunctionId fn, Pool& pool);
  /// Cancels `pool`'s timer if it is queued.
  void disarm(Pool& pool);
  /// The timer of `fn`'s pool, queued under expiry seq `seq`, fires: the
  /// oldest worker is reclaimed if it is still the one the timer was queued
  /// for, and the timer moves on to the next oldest.
  void expire(FunctionId fn, std::uint64_t seq);
  /// Drops entry `index` of `pool`; emptying the pool cancels its timer.
  void remove_at(Pool& pool, std::size_t index);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const PlatformCalibration& calib_;

  /// Warm idle workers per function, oldest first, and the pool's timer.
  common::IdTable<FunctionId, Pool> warm_;
  /// Workers currently mid-rebind.
  common::IdWindow<WorkerId, InflightRebind> rebinding_;
  /// Pool timers queued (see keep_alive_event_count()).
  std::size_t armed_ = 0;
};

}  // namespace xanadu::platform
