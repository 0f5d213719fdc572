#include "platform/policy.hpp"

#include <utility>

#include "platform/engine.hpp"

namespace xanadu::platform {

// -- PolicyView -------------------------------------------------------------

void PolicyView::bind(Clock now, CountQuery warm, CountQuery provisioning) {
  now_ = std::move(now);
  warm_ = std::move(warm);
  provisioning_ = std::move(provisioning);
}

void PolicyView::record_arrival(WorkflowId workflow, sim::TimePoint at) {
  ++total_arrivals_;
  WorkflowArrivals& entry = arrivals_[workflow];
  ++entry.total;
  entry.recent.push_back(at);
  if (entry.recent.size() > kArrivalHistory) entry.recent.pop_front();
}

void PolicyView::record_worker_ready(FunctionId fn,
                                     sim::Duration provision_latency) {
  FunctionEstimate& estimate = estimates_[fn];
  ++estimate.provision_samples;
  estimate.mean_provision_ms +=
      (provision_latency.millis() - estimate.mean_provision_ms) /
      static_cast<double>(estimate.provision_samples);
}

void PolicyView::record_execution(FunctionId fn, sim::Duration exec_duration) {
  FunctionEstimate& estimate = estimates_[fn];
  ++estimate.exec_samples;
  estimate.mean_exec_ms += (exec_duration.millis() - estimate.mean_exec_ms) /
                           static_cast<double>(estimate.exec_samples);
}

void PolicyView::record_completion(bool failed) {
  ++completions_;
  if (failed) ++failures_;
}

std::uint64_t PolicyView::arrivals(WorkflowId workflow) const {
  auto it = arrivals_.find(workflow);
  return it == arrivals_.end() ? 0 : it->second.total;
}

std::size_t PolicyView::warm_count(FunctionId fn) const {
  return warm_ ? warm_(fn) : 0;
}

std::size_t PolicyView::provisioning_count(FunctionId fn) const {
  return provisioning_ ? provisioning_(fn) : 0;
}

const PolicyView::FunctionEstimate* PolicyView::estimate(FunctionId fn) const {
  auto it = estimates_.find(fn);
  return it == estimates_.end() ? nullptr : &it->second;
}

std::uint64_t PolicyView::arrivals_in_window(WorkflowId workflow,
                                             sim::Duration window) const {
  auto it = arrivals_.find(workflow);
  if (it == arrivals_.end()) return 0;
  const sim::TimePoint cutoff = now() - window;
  std::uint64_t count = 0;
  // Walk newest-to-oldest; the deque is in arrival (time) order.
  for (auto rit = it->second.recent.rbegin(); rit != it->second.recent.rend();
       ++rit) {
    if (*rit <= cutoff) break;
    ++count;
  }
  return count;
}

double PolicyView::arrival_rate_per_sec(WorkflowId workflow,
                                        sim::Duration window) const {
  if (window <= sim::Duration::zero()) return 0.0;
  const std::uint64_t count = arrivals_in_window(workflow, window);
  return static_cast<double>(count) / window.seconds();
}

// -- ProvisionPolicy defaults -----------------------------------------------

// Default ProvisionPolicy hooks are no-ops: a policy overrides only the
// lifecycle points it cares about.

void ProvisionPolicy::on_request_submitted(PlatformEngine&, RequestContext&) {}
void ProvisionPolicy::on_node_triggered(PlatformEngine&, RequestContext&, NodeId) {}
void ProvisionPolicy::on_node_exec_start(PlatformEngine&, RequestContext&, NodeId) {}
void ProvisionPolicy::on_worker_ready(PlatformEngine&, WorkflowId, NodeId,
                                      sim::Duration) {}
void ProvisionPolicy::on_node_completed(PlatformEngine&, RequestContext&, NodeId) {}
void ProvisionPolicy::on_xor_resolved(PlatformEngine&, RequestContext&, NodeId,
                                      NodeId) {}
void ProvisionPolicy::on_node_skipped(PlatformEngine&, RequestContext&, NodeId) {}
void ProvisionPolicy::on_request_completed(PlatformEngine&, RequestContext&,
                                           RequestResult&) {}

// -- PrewarmAllPolicy -------------------------------------------------------

void PrewarmAllPolicy::on_request_submitted(PlatformEngine& engine,
                                            RequestContext& ctx) {
  for (const workflow::Node& node : ctx.dag->nodes()) {
    engine.prewarm(ctx, node.id);
  }
}

}  // namespace xanadu::platform
