#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace xanadu::cluster {

Cluster::Cluster(const ClusterOptions& options, common::Rng rng) : rng_(rng) {
  if (options.host_count == 0) {
    throw std::invalid_argument{"Cluster: need at least one host"};
  }
  hosts_.reserve(options.host_count);
  for (std::size_t i = 0; i < options.host_count; ++i) {
    hosts_.emplace_back(HostId{i}, options.memory_mb_per_host);
  }
}

void Cluster::set_worker_observer(WorkerObserver observer) {
  if (observer && observer_) {
    throw std::logic_error{"Cluster: a worker observer is already installed"};
  }
  observer_ = std::move(observer);
}

const Host& Cluster::host(HostId id) const {
  if (!id.valid() || id.value() >= hosts_.size()) {
    throw std::invalid_argument{"Cluster::host: id out of range"};
  }
  return hosts_[id.value()];
}

std::optional<HostId> Cluster::place(double memory_mb) const {
  const Host* best = nullptr;
  for (const Host& h : hosts_) {
    if (!h.available() || h.memory_free_mb() < memory_mb) continue;
    if (best == nullptr || h.memory_free_mb() > best->memory_free_mb()) {
      best = &h;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

Worker* Cluster::start_provisioning(common::FunctionId fn, SandboxKind kind,
                                    double function_memory_mb, HostId host_id,
                                    sim::TimePoint now) {
  if (!host_id.valid() || host_id.value() >= hosts_.size()) {
    throw std::invalid_argument{"Cluster::start_provisioning: bad host id"};
  }
  Host& host = hosts_[host_id.value()];
  const SandboxProfile& profile = catalog_.profile(kind);
  const double total_memory = function_memory_mb + profile.memory_overhead_mb;
  if (!host.try_reserve_memory(total_memory)) return nullptr;
  host.provisioning_started();
  const WorkerId id = worker_ids_.next();
  Worker& worker = workers_.insert(
      id, std::make_unique<Worker>(id, fn, host_id, kind, function_memory_mb,
                                   profile, ledger_, now));
  report_transition(worker, WorkerTransition::Provisioning);
  return &worker;
}

sim::Duration Cluster::sample_provision_latency(const Worker& worker) const {
  const SandboxProfile& profile = catalog_.profile(worker.kind());
  const Host& host = hosts_[worker.host().value()];
  // The worker's own provisioning is already counted in inflight.
  const unsigned contenders =
      host.inflight_provisions() > 0 ? host.inflight_provisions() - 1 : 0;
  const double inflation =
      1.0 + profile.concurrency_penalty * static_cast<double>(contenders);
  double millis = profile.cold_start_base.millis() * inflation;
  if (profile.cold_start_jitter > sim::Duration::zero()) {
    // Per-provision stream, keyed (function, worker): the tied
    // pipeline.daemon_command batch of onset-time speculation used to race
    // for draws on the shared cluster stream (the order-dependence the race
    // detector pinned); a stable-key fork makes each provision's jitter a
    // pure function of ids, not of firing order.
    common::Rng jitter = rng_.fork_stream(common::fnv1a_u64(
        worker.id().value(), common::fnv1a_u64(worker.function().value())));
    millis += jitter.normal(0.0, profile.cold_start_jitter.millis());
  }
  millis = std::max(millis, 1.0);
  return sim::Duration::from_millis(millis);
}

void Cluster::finish_provisioning(Worker& worker, sim::TimePoint now) {
  hosts_[worker.host().value()].provisioning_finished();
  worker.mark_ready(now);
  report_transition(worker, WorkerTransition::Ready);
}

void Cluster::destroy_worker(WorkerId id, sim::TimePoint now) {
  remove_worker(id, now, /*crash=*/false);
}

void Cluster::crash_worker(WorkerId id, sim::TimePoint now) {
  remove_worker(id, now, /*crash=*/true);
}

void Cluster::remove_worker(WorkerId id, sim::TimePoint now, bool crash) {
  Worker* found = find_worker(id);
  if (found == nullptr) {
    throw std::invalid_argument{crash
                                    ? "Cluster::crash_worker: unknown worker"
                                    : "Cluster::destroy_worker: unknown worker"};
  }
  Worker& worker = *found;
  const bool was_provisioning = worker.state() == WorkerState::Provisioning;
  if (crash && worker.state() == WorkerState::Busy) {
    worker.crash(now);
  } else {
    worker.terminate(now);
  }
  Host& host = hosts_[worker.host().value()];
  if (was_provisioning) host.provisioning_finished();
  host.release_memory(worker.total_memory_mb());
  report_transition(worker, WorkerTransition::Dead);
  workers_.erase(id);
}

void Cluster::set_host_available(HostId id, bool available) {
  if (!id.valid() || id.value() >= hosts_.size()) {
    throw std::invalid_argument{"Cluster::set_host_available: bad host id"};
  }
  hosts_[id.value()].set_available(available);
}

std::vector<WorkerId> Cluster::workers_on_host(HostId host) const {
  std::vector<WorkerId> ids;
  workers_.for_each([&](WorkerId id, const Worker& worker) {
    if (worker.host() == host) ids.push_back(id);
  });
  return ids;
}

}  // namespace xanadu::cluster
