#include "platform/warm_pool.hpp"

#include <algorithm>
#include <vector>

#include "common/hash.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

WarmPoolManager::WarmPoolManager(sim::Simulator& sim,
                                 cluster::Cluster& cluster,
                                 const PlatformCalibration& calib)
    : sim_(sim), cluster_(cluster), calib_(calib) {}

std::optional<WorkerId> WarmPoolManager::acquire(FunctionId fn) {
  auto it = warm_.find(fn);
  if (it == warm_.end() || it->second.empty()) return std::nullopt;
  const PooledWorker entry = it->second.front();
  it->second.pop_front();
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
  warm_[fn].push_back(PooledWorker{worker, keep_alive});
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
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return;
  auto it = find_entry(pool->second, worker);
  if (it == pool->second.end()) return;  // Already reused or reclaimed.
  const PooledWorker entry = *it;
  pool->second.erase(it);
  destroy(entry);
}

std::size_t WarmPoolManager::shrink_to(FunctionId fn, std::size_t target) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return 0;
  std::size_t destroyed = 0;
  while (pool->second.size() > target) {
    const PooledWorker entry = pool->second.front();
    pool->second.pop_front();
    destroy(entry);
    ++destroyed;
  }
  return destroyed;
}

void WarmPoolManager::flush_all() {
  // Teardown order is observable (bus events, ledger float accumulation), so
  // collect the unordered map's keys and flush in sorted order.
  std::vector<FunctionId> ids;
  ids.reserve(warm_.size());
  for (auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
    (void)pool;
    ids.push_back(fn);
  }
  std::sort(ids.begin(), ids.end());
  for (const FunctionId fn : ids) {
    shrink_to(fn, 0);
  }
  // Workers mid-rebind belong to no pool (popped at rebind start), so the
  // sweep above cannot see them.  A flush means "no warm sandbox survives":
  // cancel each pending completion and destroy the sandbox now, in sorted
  // worker-id order so teardown stays replay-deterministic.
  std::vector<WorkerId> rebinding;
  rebinding.reserve(rebinding_.size());
  for (const auto& [worker, inflight] : rebinding_) {  // lint:allow(unordered-iteration)
    (void)inflight;
    rebinding.push_back(worker);
  }
  std::sort(rebinding.begin(), rebinding.end());
  for (const WorkerId worker : rebinding) {
    sim_.cancel(rebinding_.at(worker).completion);
    rebinding_.erase(worker);
    if (cluster_.find_worker(worker) != nullptr) {
      cluster_.destroy_worker(worker, sim_.now());
    }
  }
}

bool WarmPoolManager::remove_if_pooled(FunctionId fn, WorkerId worker) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return false;
  auto it = find_entry(pool->second, worker);
  if (it == pool->second.end()) return false;
  disarm(it->keep_alive);
  pool->second.erase(it);
  return true;
}

bool WarmPoolManager::evict_oldest() {
  // Evict the warm worker that has been idle the longest, platform-wide.
  // The scan reduces over an unordered map, but the (idle_since, worker id)
  // ordering is total, so the victim is independent of iteration order.
  FunctionId victim_fn{};
  WorkerId victim{};
  sim::TimePoint oldest{};
  bool found = false;
  for (auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
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
  }
  if (!found) return false;
  reclaim(victim_fn, victim);
  return true;
}

bool WarmPoolManager::rebind(FunctionId from, FunctionId to) {
  auto pool = warm_.find(from);
  if (pool == warm_.end() || pool->second.empty()) return false;
  const WorkerId worker_id = pool->second.front().worker;
  disarm(pool->second.front().keep_alive);
  pool->second.pop_front();
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
  rebinding_.emplace(worker_id, InflightRebind{to, completion});
  return true;
}

std::size_t WarmPoolManager::warm_count(FunctionId fn) const {
  auto it = warm_.find(fn);
  return it == warm_.end() ? 0 : it->second.size();
}

std::size_t WarmPoolManager::keep_alive_event_count() const { return armed_; }

std::size_t WarmPoolManager::inbound_rebinds(FunctionId fn) const {
  std::size_t count = 0;
  // lint:allow(unordered-iteration) order-insensitive count
  for (const auto& [worker, inflight] : rebinding_) {
    if (inflight.target == fn) ++count;
  }
  return count;
}

void WarmPoolManager::register_probes(sim::ProbeRegistry& probes) const {
  // Sums over unordered maps are order-insensitive reductions, so the
  // iteration order cannot leak into the sampled values.
  probes.add("warm_pool.pooled_workers", [this] {
    std::uint64_t total = 0;
    // lint:allow(unordered-iteration) order-insensitive sum
    for (const auto& [fn, pool] : warm_) total += pool.size();
    return total;
  });
  probes.add("warm_pool.keep_alive_timers",
             [this] { return static_cast<std::uint64_t>(keep_alive_event_count()); });
  probes.add("warm_pool.inbound_rebinds", [this] {
    return static_cast<std::uint64_t>(rebinding_.size());
  });
}

std::uint64_t WarmPoolManager::membership_digest() const {
  std::vector<FunctionId> fns;
  fns.reserve(warm_.size());
  // Sorted below: the fold must not depend on the map's iteration order.
  for (const auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
    if (!pool.empty()) fns.push_back(fn);
  }
  std::sort(fns.begin(), fns.end());
  std::uint64_t digest = common::kFnvOffsetBasis;
  for (const FunctionId fn : fns) {
    digest = common::fnv1a_u64(fn.value(), digest);
    for (const PooledWorker& entry : warm_.at(fn)) {
      digest = common::fnv1a_u64(entry.worker.value(), digest);
    }
  }
  return digest;
}

}  // namespace xanadu::platform
