#include "platform/provision_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "sim/audit.hpp"

namespace xanadu::platform {

namespace {

/// A daemon command published on the bus is re-sent if not acknowledged
/// within this timeout; each retry doubles the wait (exponential backoff).
constexpr sim::Duration kCommandTimeout = sim::Duration::from_millis(200);
/// Re-sends before the build is abandoned and re-placed.
constexpr unsigned kMaxCommandRetries = 5;

}  // namespace

ProvisionPipeline::ProvisionPipeline(sim::Simulator& sim,
                                     cluster::Cluster& cluster,
                                     const PlatformCalibration& calib,
                                     sim::FaultPlan& fault_plan,
                                     WarmPoolManager& warm_pool,
                                     RecoveryStats& recovery_stats, Hooks hooks)
    : sim_(sim),
      cluster_(cluster),
      calib_(calib),
      fault_plan_(fault_plan),
      warm_pool_(warm_pool),
      recovery_stats_(recovery_stats),
      hooks_(std::move(hooks)) {}

void ProvisionPipeline::attach_bus(MessageBus& bus, std::size_t host_count) {
  bus_ = &bus;
  // One Dispatch Daemon per host, subscribed to its command topic.  Topic
  // ids are interned up front so hot-path publishes skip both the per-call
  // string construction and the hash lookup.
  daemon_topics_.reserve(host_count);
  for (std::size_t host = 0; host < host_count; ++host) {
    // lint:allow(hot-path-text) set-up: runs once per host at engine build
    daemon_topics_.push_back(bus_->intern("daemon." + std::to_string(host)));
    bus_->subscribe(daemon_topics_.back(), [this](const BusMessage& message) {
      const auto* command = std::get_if<ProvisionCommand>(&message.payload);
      if (command == nullptr) {
        throw std::invalid_argument{
            "Dispatch Daemon: a non-ProvisionCommand message on its topic"};
      }
      daemon_build_sandbox(command->worker, command->extra);
    });
  }
}

PendingProvision* ProvisionPipeline::start(FunctionId fn,
                                           const workflow::FunctionSpec& spec) {
  const sim::Duration eviction_delay = make_room();

  const auto host = cluster_.place(spec.memory_mb);
  if (!host) return nullptr;
  cluster::Worker* worker = cluster_.start_provisioning(
      fn, spec.sandbox, spec.memory_mb, *host, sim_.now());
  if (worker == nullptr) return nullptr;

  // The Dispatch Daemon performs the actual sandbox build.  With the
  // control bus enabled the command travels over the bus (paying its
  // latency); otherwise it is dispatched one event-tick later.  Either way
  // the latency sampling is deferred past the current instant so that a
  // batch of provisions started together (onset-time speculation) see each
  // other as contenders -- the Docker concurrent-start bottleneck slows
  // every container in the burst, including the first.
  const WorkerId worker_id = worker->id();
  const sim::Duration extra =
      calib_.provision_extra_for(spec.sandbox) + eviction_delay;
  EventId sample_event{};
  if (bus_ != nullptr) {
    publish_command(*worker, extra);
  } else {
    sample_event = sim_.schedule_after(
        sim::Duration::zero(),
        [this, worker_id, extra] { daemon_build_sandbox(worker_id, extra); },
        "pipeline.daemon_command");
  }
  PendingProvision pending;
  pending.worker = worker_id;
  pending.ready_event = sample_event;
  pending.extra = extra;
  std::vector<PendingProvision>& slots = provisions_.try_emplace(fn);
  slots.push_back(std::move(pending));
  ++provisions_started_;
  if (bus_ != nullptr && fault_plan_.active() && calib_.recovery.enabled) {
    // The bus may drop the command; re-send it if the daemon never acks.
    arm_command_retry(worker_id);
  }
  return &slots.back();
}

void ProvisionPipeline::attach_waiter(FunctionId fn, RequestId request,
                                      NodeId node) {
  provisions_.find(fn)->front().waiters.emplace_back(request, node);
}

bool ProvisionPipeline::has_provisions(FunctionId fn) const {
  return provision_count(fn) > 0;
}

std::size_t ProvisionPipeline::provision_count(FunctionId fn) const {
  const std::vector<PendingProvision>* slots = provisions_.find(fn);
  return slots == nullptr ? 0 : slots->size();
}

void ProvisionPipeline::publish_command(const cluster::Worker& worker,
                                        sim::Duration extra) {
  bus_->publish(daemon_topics_.at(worker.host().value()),
                ProvisionCommand{worker.function(), worker.id(), extra});
}

PendingProvision* ProvisionPipeline::slot_of(WorkerId worker_id) {
  const cluster::Worker* worker = cluster_.find_worker(worker_id);
  if (worker == nullptr) return nullptr;
  std::vector<PendingProvision>* slots = provisions_.find(worker->function());
  if (slots == nullptr) return nullptr;
  for (PendingProvision& p : *slots) {
    if (p.worker == worker_id) return &p;
  }
  return nullptr;
}

PendingProvision ProvisionPipeline::take(PendingProvision& slot) {
  std::vector<PendingProvision>& slots =
      *provisions_.find(cluster_.find_worker(slot.worker)->function());
  PendingProvision pending = std::move(slot);
  slots.erase(slots.begin() + (&slot - slots.data()));
  return pending;
}

void ProvisionPipeline::arm_command_retry(WorkerId worker_id) {
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr || slot->acked) return;
  // Exponential backoff: timeout, 2x timeout, 4x timeout, ...
  const sim::Duration wait =
      kCommandTimeout * static_cast<double>(std::uint64_t{1} << slot->attempts);
  slot->retry_event = sim_.schedule_after(
      wait, [this, worker_id] { command_retry_fired(worker_id); },
      "pipeline.command_retry");
}

void ProvisionPipeline::command_retry_fired(WorkerId worker_id) {
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr || slot->acked) return;  // Built or torn down already.
  slot->retry_event = EventId{};
  if (slot->attempts >= kMaxCommandRetries) {
    // The daemon is unreachable; give up on this build and re-place.
    build_failed(worker_id);
    return;
  }
  ++slot->attempts;
  ++recovery_stats_.command_retries;
  publish_command(*cluster_.find_worker(worker_id), slot->extra);
  arm_command_retry(worker_id);
}

void ProvisionPipeline::daemon_build_sandbox(WorkerId worker_id,
                                             sim::Duration extra_latency) {
  cluster::Worker* live = cluster_.find_worker(worker_id);
  if (live == nullptr) return;  // Torn down before the command arrived.
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr) return;  // Aborted while the command was in flight.
  // Exactly one build per provision: duplicate deliveries (bus duplication
  // fault) and late command retries are ignored once the first arrived.
  if (slot->acked) return;
  slot->acked = true;
  if (slot->retry_event.valid()) {
    sim_.cancel(slot->retry_event);
    slot->retry_event = EventId{};
  }

  sim::Duration latency =
      cluster_.sample_provision_latency(*live) + extra_latency;
  bool build_fails = false;
  if (fault_plan_.active()) {
    // Fixed consult order (straggler, then failure) keeps faulted runs
    // digest-stable.
    const double multiplier = fault_plan_.next_provision_multiplier();
    if (multiplier != 1.0) {
      latency = sim::Duration::from_millis(latency.millis() * multiplier);
    }
    build_fails = fault_plan_.next_provision_failure();
  }
  // Record the pending event so abort_unclaimed can cancel it.
  if (build_fails) {
    slot->ready_event = sim_.schedule_after(
        latency, [this, worker_id] { build_failed(worker_id); },
        "pipeline.build_failed");
  } else {
    slot->ready_event = sim_.schedule_after(
        latency, [this, worker_id] { provision_ready(worker_id); },
        "pipeline.provision_ready");
  }
}

sim::Duration ProvisionPipeline::make_room() {
  if (calib_.max_live_workers < 0) return sim::Duration::zero();
  if (cluster_.live_worker_count() <
      static_cast<std::size_t>(calib_.max_live_workers)) {
    return sim::Duration::zero();
  }
  // Whether or not an idle victim exists (every live worker may be busy or
  // provisioning), the new provision queues behind the contention penalty.
  warm_pool_.evict_oldest();
  return calib_.eviction_penalty;
}

void ProvisionPipeline::provision_ready(WorkerId worker_id) {
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr) {
    throw std::logic_error{
        "ProvisionPipeline::provision_ready: unknown provision"};
  }
  PendingProvision pending = take(*slot);
  ++provisions_completed_;
  hooks_.on_ready(worker_id, std::move(pending.waiters));
}

void ProvisionPipeline::build_failed(WorkerId worker_id) {
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr) return;
  PendingProvision pending = take(*slot);
  if (pending.retry_event.valid()) sim_.cancel(pending.retry_event);
  sim_.cancel(pending.ready_event);
  ++recovery_stats_.builds_abandoned;
  cluster_.destroy_worker(worker_id, sim_.now());
  hooks_.on_build_failed(pending.waiters);
}

std::optional<ProvisionWaiters> ProvisionPipeline::remove_for_outage(
    WorkerId worker_id) {
  PendingProvision* slot = slot_of(worker_id);
  if (slot == nullptr) return std::nullopt;
  PendingProvision pending = take(*slot);
  sim_.cancel(pending.ready_event);
  if (pending.retry_event.valid()) sim_.cancel(pending.retry_event);
  return std::move(pending.waiters);
}

bool ProvisionPipeline::redirect(FunctionId from, FunctionId to) {
  std::vector<PendingProvision>* slots = provisions_.find(from);
  if (slots == nullptr) return false;
  auto it = std::find_if(slots->begin(), slots->end(),
                         [](const PendingProvision& p) {
                           return p.waiters.empty();
                         });
  if (it == slots->end()) return false;
  PendingProvision provision = std::move(*it);
  slots->erase(it);
  cluster::Worker* worker = cluster_.find_worker(provision.worker);
  XANADU_INVARIANT(worker != nullptr, "redirect_provision: worker vanished");
  worker->rebind(to);
  provision.redirected = true;
  provisions_.try_emplace(to).push_back(std::move(provision));
  return true;
}

std::size_t ProvisionPipeline::abort_unclaimed(FunctionId fn) {
  std::vector<PendingProvision>* slots = provisions_.find(fn);
  if (slots == nullptr) return 0;
  std::size_t aborted = 0;
  for (auto it = slots->begin(); it != slots->end();) {
    if (!it->waiters.empty()) {
      ++it;
      continue;
    }
    // ready_event holds the latency-sampling event until it fires, then the
    // provision-completion event; cancelling whichever is pending stops the
    // pipeline.
    sim_.cancel(it->ready_event);
    if (it->retry_event.valid()) sim_.cancel(it->retry_event);
    cluster_.destroy_worker(it->worker, sim_.now());
    it = slots->erase(it);
    ++aborted;
  }
  return aborted;
}

void ProvisionPipeline::register_probes(sim::ProbeRegistry& probes) const {
  probes.add("pipeline.provisions_inflight", [this] {
    std::uint64_t total = 0;
    provisions_.for_each(
        [&total](FunctionId, const std::vector<PendingProvision>& pending) {
          total += pending.size();
        });
    return total;
  });
  probes.add("pipeline.redirects_pending", [this] {
    std::uint64_t total = 0;
    provisions_.for_each(
        [&total](FunctionId, const std::vector<PendingProvision>& pending) {
          for (const PendingProvision& p : pending) {
            total += p.redirected ? 1 : 0;
          }
        });
    return total;
  });
  probes.add("pipeline.provisions_started",
             [this] { return provisions_started_; });
  probes.add("pipeline.provisions_completed",
             [this] { return provisions_completed_; });
}

}  // namespace xanadu::platform
