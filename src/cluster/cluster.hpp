#pragma once

// Cluster: the set of hosts workers are placed on, the sandbox catalog, the
// live worker table, and the cluster-wide resource ledger.
//
// The cluster provides mechanism only (placement, latency sampling, worker
// bookkeeping); *when* to provision is decided by the platform layer
// (src/platform) and Xanadu's speculation policies (src/core).
//
// Every worker state change goes through the cluster, which reports it to
// one observer: the platform announces the fleet from there, so no caller
// announces a transition by hand.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/host.hpp"
#include "cluster/sandbox.hpp"
#include "cluster/worker.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"

namespace xanadu::cluster {

struct ClusterOptions {
  std::size_t host_count = 1;
  /// The paper's testbed: 128 GB of memory per host.
  double memory_mb_per_host = 128.0 * 1024.0;
};

class Cluster {
 public:
  /// Called after each worker state change; a dying worker is handed over
  /// before the cluster forgets it.
  using WorkerObserver = std::function<void(const Worker&, WorkerTransition)>;

  explicit Cluster(const ClusterOptions& options, common::Rng rng);

  /// Installs the one observer of worker transitions, or removes it when
  /// `observer` is empty.  Installing a second observer throws
  /// std::logic_error.
  void set_worker_observer(WorkerObserver observer);

  [[nodiscard]] SandboxCatalog& catalog() { return catalog_; }
  [[nodiscard]] const SandboxCatalog& catalog() const { return catalog_; }
  [[nodiscard]] const ResourceLedger& ledger() const { return ledger_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] const Host& host(HostId id) const;

  /// Picks the available host with the most free memory that can fit
  /// `memory_mb` (worst fit: spreads load and provisioning contention).
  /// Returns nullopt when no host has capacity.
  [[nodiscard]] std::optional<HostId> place(double memory_mb) const;

  /// Creates a worker in Provisioning state on `host`, reserving its memory.
  /// Returns nullptr if the host cannot fit the worker.  The returned
  /// pointer stays valid until the worker is destroyed via
  /// destroy_worker() or crash_worker(), however many workers follow it.
  Worker* start_provisioning(common::FunctionId fn, SandboxKind kind,
                             double function_memory_mb, HostId host,
                             sim::TimePoint now);

  /// Samples the provisioning latency for a provisioning operation started
  /// right now on the worker's host, applying the concurrency penalty and
  /// jitter.  The jitter draw comes from a per-provision stream forked with
  /// the stable key (function, worker) -- never from the cluster's shared
  /// stream -- so a batch of same-timestamp provisions (onset-time
  /// speculation) samples identical latencies under any firing order.
  [[nodiscard]] sim::Duration sample_provision_latency(
      const Worker& worker) const;

  /// Marks the worker ready (Provisioning -> Warm) and decrements the
  /// host's in-flight provision count.
  void finish_provisioning(Worker& worker, sim::TimePoint now);

  /// Warm -> Busy running `node` of `request`, and Busy -> Warm
  /// (Worker::begin_execution and end_execution, reported).  Inline: they
  /// run twice per executed node.
  void begin_execution(Worker& worker, sim::TimePoint now, RequestId request,
                       NodeId node) {
    worker.begin_execution(now, request, node);
    report_transition(worker, WorkerTransition::Busy);
  }
  void end_execution(Worker& worker, sim::TimePoint now) {
    worker.end_execution(now);
    report_transition(worker, WorkerTransition::Idle);
  }

  /// Terminates a worker (any non-busy state) and releases its resources.
  /// A worker still provisioning counts as a cancelled provision.
  void destroy_worker(WorkerId id, sim::TimePoint now);

  /// Fault-injection teardown: like destroy_worker(), but legal for Busy
  /// workers too (the execution is abandoned mid-flight).
  void crash_worker(WorkerId id, sim::TimePoint now);

  /// Marks a host down (skipped by place()) or back up.
  void set_host_available(HostId id, bool available);

  /// Ids of live workers placed on `host`, ascending -- a deterministic
  /// iteration order for outage teardown.
  [[nodiscard]] std::vector<WorkerId> workers_on_host(HostId host) const;

  [[nodiscard]] Worker* find_worker(WorkerId id) { return workers_.find(id); }
  [[nodiscard]] const Worker* find_worker(WorkerId id) const {
    return workers_.find(id);
  }
  [[nodiscard]] std::size_t live_worker_count() const { return workers_.size(); }

 private:
  /// The one teardown body behind destroy_worker() and crash_worker().
  void remove_worker(WorkerId id, sim::TimePoint now, bool crash);
  void report_transition(const Worker& worker,
                         WorkerTransition transition) const {
    if (observer_) observer_(worker, transition);
  }

  SandboxCatalog catalog_;
  ResourceLedger ledger_;
  std::vector<Host> hosts_;
  /// Live workers.  The Worker* that start_provisioning() hands out
  /// survives the window growing.
  common::IdWindow<WorkerId, Worker> workers_;
  common::IdGenerator<WorkerId> worker_ids_;
  common::Rng rng_;
  WorkerObserver observer_;
};

}  // namespace xanadu::cluster
