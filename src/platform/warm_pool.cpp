#include "platform/warm_pool.hpp"

#include <memory>
#include <utility>
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
  if (pool == nullptr || pool->idle.empty()) return std::nullopt;
  const WorkerId worker = pool->idle.front().worker;
  pool->idle.pop_front();
  return worker;
}

void WarmPoolManager::park(FunctionId fn, WorkerId worker) {
  // The key a keep-alive event scheduled now would get; it is queued only
  // once this worker heads the pool.
  const sim::EventKey expiry = sim_.reserve_key(
      sim_.now() + calib_.keep_alive.clamped_non_negative());
  Pool& pool = warm_.try_emplace(fn);
  pool.idle.push_back(PooledWorker{worker, expiry});
  if (!pool.timer.valid()) arm(fn, pool);
}

void WarmPoolManager::arm(FunctionId fn, Pool& pool) {
  const sim::EventKey key = pool.idle.front().expiry;
  pool.timer = sim_.schedule_keyed(
      key, [this, fn, seq = key.seq] { expire(fn, seq); },
      "warm_pool.keep_alive");
  ++armed_;
}

void WarmPoolManager::disarm(Pool& pool) {
  // cancel() is false when no timer is queued, and when the timer itself is
  // firing: a firing event has already left the slab, and expire() has
  // already counted it out of armed_.
  if (sim_.cancel(pool.timer)) --armed_;
  pool.timer = EventId{};
}

void WarmPoolManager::expire(FunctionId fn, std::uint64_t seq) {
  Pool& pool = *warm_.find(fn);
  pool.timer = EventId{};
  --armed_;
  // A pool's keys ascend from its front, so the front is either the worker
  // the timer was queued for, now due, or a later one: the queued worker
  // left early (acquired, rebound or removed) and the timer just moves on.
  if (!pool.idle.empty() && pool.idle.front().expiry.seq == seq) {
    const WorkerId worker = pool.idle.front().worker;
    pool.idle.pop_front();
    cluster_.destroy_worker(worker, sim_.now());
  }
  if (!pool.idle.empty()) arm(fn, pool);
}

void WarmPoolManager::remove_at(Pool& pool, std::size_t index) {
  pool.idle.erase(index);
  if (pool.idle.empty()) disarm(pool);
}

std::size_t WarmPoolManager::shrink_to(FunctionId fn, std::size_t target) {
  Pool* pool = warm_.find(fn);
  if (pool == nullptr) return 0;
  std::size_t destroyed = 0;
  while (pool->idle.size() > target) {
    const WorkerId worker = pool->idle.front().worker;
    pool->idle.pop_front();
    cluster_.destroy_worker(worker, sim_.now());
    ++destroyed;
  }
  // Also cancels a timer that an acquire() left queued on an empty pool.
  if (pool->idle.empty()) disarm(*pool);
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
  const std::size_t index = pool->idle.find(worker);
  if (index == pool->idle.size()) return false;
  remove_at(*pool, index);
  return true;
}

bool WarmPoolManager::evict_oldest() {
  // Evict the warm worker that has been idle the longest, platform-wide;
  // ties go to the lower worker id.
  FunctionId victim_fn{};
  std::size_t victim_index = 0;
  WorkerId victim{};
  sim::TimePoint oldest{};
  bool found = false;
  warm_.for_each([&](FunctionId fn, const Pool& pool) {
    for (std::size_t i = 0; i < pool.idle.size(); ++i) {
      const WorkerId id = pool.idle[i].worker;
      const cluster::Worker* worker = cluster_.find_worker(id);
      XANADU_INVARIANT(worker != nullptr, "warm pool references a dead worker");
      if (!found || worker->idle_since() < oldest ||
          (worker->idle_since() == oldest && id < victim)) {
        oldest = worker->idle_since();
        victim = id;
        victim_fn = fn;
        victim_index = i;
        found = true;
      }
    }
  });
  if (!found) return false;
  remove_at(*warm_.find(victim_fn), victim_index);
  cluster_.destroy_worker(victim, sim_.now());
  return true;
}

bool WarmPoolManager::rebind(FunctionId from, FunctionId to) {
  Pool* pool = warm_.find(from);
  if (pool == nullptr || pool->idle.empty()) return false;
  // As in acquire(), the pool's timer stays queued and moves on when it
  // fires.
  const WorkerId worker_id = pool->idle.front().worker;
  pool->idle.pop_front();
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
  return pool == nullptr ? 0 : pool->idle.size();
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
      total += pool.idle.size();
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
    if (pool.idle.empty()) return;
    digest = common::fnv1a_u64(fn.value(), digest);
    for (std::size_t i = 0; i < pool.idle.size(); ++i) {
      digest = common::fnv1a_u64(pool.idle[i].worker.value(), digest);
    }
  });
  return digest;
}

void WarmPoolManager::IdleRing::push_back(const PooledWorker& entry) {
  if (size_ == slots_.size()) {
    // Full: unwrap into a buffer twice the size.
    std::vector<PooledWorker> grown(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = entry;
  ++size_;
}

void WarmPoolManager::IdleRing::erase(std::size_t index) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = index; i + 1 < size_; ++i) {
    slots_[(head_ + i) & mask] = slots_[(head_ + i + 1) & mask];
  }
  --size_;
}

std::size_t WarmPoolManager::IdleRing::find(WorkerId worker) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if ((*this)[i].worker == worker) return i;
  }
  return size_;
}

}  // namespace xanadu::platform
