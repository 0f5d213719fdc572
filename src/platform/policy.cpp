#include "platform/policy.hpp"

#include "platform/engine.hpp"

namespace xanadu::platform {

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
