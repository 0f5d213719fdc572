#pragma once

// Cluster: the set of hosts workers are placed on, the sandbox catalog, the
// live worker table, and the cluster-wide resource ledger.
//
// The cluster provides mechanism only (placement, latency sampling, worker
// bookkeeping); *when* to provision is decided by the platform layer
// (src/platform) and Xanadu's speculation policies (src/core).

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/host.hpp"
#include "cluster/sandbox.hpp"
#include "cluster/worker.hpp"
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
  explicit Cluster(const ClusterOptions& options, common::Rng rng);

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
  /// destroy_worker().
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

  /// Terminates a worker (any non-busy state) and releases its resources.
  /// A worker still provisioning counts as a cancelled provision.
  void destroy_worker(WorkerId id, sim::TimePoint now);

  /// Fault-injection teardown: like destroy_worker(), but legal for Busy
  /// workers too (the execution is abandoned mid-flight).
  void crash_worker(WorkerId id, sim::TimePoint now);

  /// Marks a host down (skipped by place()) or back up.
  void set_host_available(HostId id, bool available);

  /// Ids of live workers placed on `host`, sorted ascending -- a
  /// deterministic iteration order for outage teardown.
  [[nodiscard]] std::vector<WorkerId> workers_on_host(HostId host) const;

  [[nodiscard]] Worker* find_worker(WorkerId id);
  [[nodiscard]] const Worker* find_worker(WorkerId id) const;
  [[nodiscard]] std::size_t live_worker_count() const { return workers_.size(); }

 private:
  SandboxCatalog catalog_;
  ResourceLedger ledger_;
  std::vector<Host> hosts_;
  std::unordered_map<WorkerId, std::unique_ptr<Worker>> workers_;
  common::IdGenerator<WorkerId> worker_ids_;
  common::Rng rng_;
};

}  // namespace xanadu::cluster
