#include "platform/warm_pool.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

WarmPoolManager::WarmPoolManager(sim::Simulator& sim,
                                 cluster::Cluster& cluster,
                                 const PlatformCalibration& calib)
    : sim_(sim), cluster_(cluster), calib_(calib) {}

std::optional<WorkerId> WarmPoolManager::acquire(FunctionId fn) {
  Pool* pool = warm_.find(fn);
  if (pool == nullptr || pool->empty()) return std::nullopt;
  const PooledWorker entry = pool->front();
  pool->pop_front();
  disarm(entry.keep_alive);
  return entry.worker;
}

void WarmPoolManager::park(FunctionId fn, WorkerId worker) {
  const EventId keep_alive = sim_.schedule_after(
      calib_.keep_alive,
      [this, fn, worker] {
        --armed_;
        reclaim(fn, worker);
      },
      "warm_pool.keep_alive");
  ++armed_;
  warm_.try_emplace(fn).push_back(PooledWorker{worker, keep_alive});
}

void WarmPoolManager::disarm(EventId keep_alive) {
  // cancel() is false when the timer itself is reclaiming the worker: a
  // firing event has already left the slab, and its callback has already
  // counted it out of armed_.
  if (sim_.cancel(keep_alive)) --armed_;
}

WarmPoolManager::Pool::iterator WarmPoolManager::find_entry(Pool& pool,
                                                            WorkerId worker) {
  return std::find_if(pool.begin(), pool.end(), [worker](const PooledWorker& e) {
    return e.worker == worker;
  });
}

void WarmPoolManager::destroy(const PooledWorker& entry) {
  disarm(entry.keep_alive);
  cluster_.destroy_worker(entry.worker, sim_.now());
}

void WarmPoolManager::reclaim(FunctionId fn, WorkerId worker) {
  Pool* pool = warm_.find(fn);
  if (pool == nullptr) return;
  auto it = find_entry(*pool, worker);
  if (it == pool->end()) return;  // Already reused or reclaimed.
  const PooledWorker entry = *it;
  pool->erase(it);
  destroy(entry);
}

std::size_t WarmPoolManager::shrink_to(FunctionId fn, std::size_t target) {
  Pool* pool = warm_.find(fn);
  if (pool == nullptr) return 0;
  std::size_t destroyed = 0;
  while (pool->size() > target) {
    const PooledWorker entry = pool->front();
    pool->pop_front();
    destroy(entry);
    ++destroyed;
  }
  return destroyed;
}

void WarmPoolManager::flush_all() {
  // Teardown order is observable (bus events, ledger float accumulation):
  // pools go in function-id order, the table's own.
  warm_.for_each(
      [this](FunctionId fn, const Pool&) { shrink_to(fn, 0); });
  // Workers mid-rebind belong to no pool (popped at rebind start), so the
  // sweep above cannot see them.  A flush means "no warm sandbox survives":
  // cancel each pending completion and destroy the sandbox now, in
  // worker-id order so teardown stays replay-deterministic.  The ids are
  // collected first, since each teardown erases its entry.
  std::vector<WorkerId> rebinding;
  rebinding.reserve(rebinding_.size());
  rebinding_.for_each([&rebinding](WorkerId worker, const InflightRebind&) {
    rebinding.push_back(worker);
  });
  for (const WorkerId worker : rebinding) {
    sim_.cancel(rebinding_.extract(worker)->completion);
    if (cluster_.find_worker(worker) != nullptr) {
      cluster_.destroy_worker(worker, sim_.now());
    }
  }
}

bool WarmPoolManager::remove_if_pooled(FunctionId fn, WorkerId worker) {
  Pool* pool = warm_.find(fn);
  if (pool == nullptr) return false;
  auto it = find_entry(*pool, worker);
  if (it == pool->end()) return false;
  disarm(it->keep_alive);
  pool->erase(it);
  return true;
}

bool WarmPoolManager::evict_oldest() {
  // Evict the warm worker that has been idle the longest, platform-wide;
  // ties go to the lower worker id.
  FunctionId victim_fn{};
  WorkerId victim{};
  sim::TimePoint oldest{};
  bool found = false;
  warm_.for_each([&](FunctionId fn, const Pool& pool) {
    for (const PooledWorker& entry : pool) {
      const WorkerId id = entry.worker;
      const cluster::Worker* worker = cluster_.find_worker(id);
      XANADU_INVARIANT(worker != nullptr, "warm pool references a dead worker");
      if (!found || worker->idle_since() < oldest ||
          (worker->idle_since() == oldest && id < victim)) {
        oldest = worker->idle_since();
        victim = id;
        victim_fn = fn;
        found = true;
      }
    }
  });
  if (!found) return false;
  reclaim(victim_fn, victim);
  return true;
}

bool WarmPoolManager::rebind(FunctionId from, FunctionId to) {
  Pool* pool = warm_.find(from);
  if (pool == nullptr || pool->empty()) return false;
  const WorkerId worker_id = pool->front().worker;
  disarm(pool->front().keep_alive);
  pool->pop_front();
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  XANADU_INVARIANT(worker != nullptr, "rebind_warm_worker: worker vanished");
  worker->rebind(to);
  // Code reload: the sandbox stays idle for the rebind latency, then joins
  // the target function's warm pool.  The completion event is tracked in
  // rebinding_ so flush_all() can cancel it and tear the sandbox down -- an
  // untracked event would let the worker re-park itself after a flush.
  const EventId completion = sim_.schedule_after(
      calib_.rebind_latency,
      [this, to, worker_id] {
        rebinding_.erase(worker_id);
        if (cluster_.find_worker(worker_id) != nullptr) {
          park(to, worker_id);
        }
      },
      "warm_pool.rebind_done");
  rebinding_.insert(worker_id, std::make_unique<InflightRebind>(
                                   InflightRebind{to, completion}));
  return true;
}

std::size_t WarmPoolManager::warm_count(FunctionId fn) const {
  const Pool* pool = warm_.find(fn);
  return pool == nullptr ? 0 : pool->size();
}

std::size_t WarmPoolManager::keep_alive_event_count() const { return armed_; }

std::size_t WarmPoolManager::inbound_rebinds(FunctionId fn) const {
  std::size_t count = 0;
  rebinding_.for_each([&](WorkerId, const InflightRebind& inflight) {
    if (inflight.target == fn) ++count;
  });
  return count;
}

void WarmPoolManager::register_probes(sim::ProbeRegistry& probes) const {
  probes.add("warm_pool.pooled_workers", [this] {
    std::uint64_t total = 0;
    warm_.for_each([&total](FunctionId, const Pool& pool) {
      total += pool.size();
    });
    return total;
  });
  probes.add("warm_pool.keep_alive_timers",
             [this] { return static_cast<std::uint64_t>(keep_alive_event_count()); });
  probes.add("warm_pool.inbound_rebinds", [this] {
    return static_cast<std::uint64_t>(rebinding_.size());
  });
}

std::uint64_t WarmPoolManager::membership_digest() const {
  std::uint64_t digest = common::kFnvOffsetBasis;
  warm_.for_each([&digest](FunctionId fn, const Pool& pool) {
    if (pool.empty()) return;
    digest = common::fnv1a_u64(fn.value(), digest);
    for (const PooledWorker& entry : pool) {
      digest = common::fnv1a_u64(entry.worker.value(), digest);
    }
  });
  return digest;
}

}  // namespace xanadu::platform
