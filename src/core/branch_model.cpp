#include "core/branch_model.hpp"

#include <algorithm>

namespace xanadu::core {

using workflow::DispatchMode;
using workflow::Edge;
using workflow::Node;

const LearnedEdge* ModelNode::find_child(NodeId child) const {
  for (const LearnedEdge& e : children) {
    if (e.child == child) return &e;
  }
  return nullptr;
}

BranchModel BranchModel::from_schema(const workflow::WorkflowDag& dag) {
  BranchModel model;
  for (const Node& n : dag.nodes()) {
    ModelNode mn;
    mn.id = n.id;
    mn.select = (n.dispatch == DispatchMode::Xor && n.children.size() > 1)
                    ? SelectMode::MaxLikelihood
                    : SelectMode::All;
    mn.children.reserve(n.children.size());
    for (const Edge& e : n.children) {
      LearnedEdge le;
      le.child = e.child;
      // Uniform prior among siblings; the schema declares branch structure
      // but not runtime likelihoods.
      le.probability = mn.select == SelectMode::MaxLikelihood
                           ? 1.0 / static_cast<double>(n.children.size())
                           : 1.0;
      le.count = 0;
      mn.children.push_back(le);
    }
    model.model_nodes_.insert_or_assign(n.id, std::move(mn));
    if (n.parents.empty()) model.roots_.push_back(n.id);
  }
  return model;
}

ModelNode& BranchModel::node(NodeId id, SelectMode mode_if_new) {
  if (ModelNode* existing = model_nodes_.find(id)) return *existing;
  ModelNode& fresh = model_nodes_.try_emplace(id);
  fresh.id = id;
  fresh.select = mode_if_new;
  return fresh;
}

std::vector<NodeId> BranchModel::known_nodes() const {
  std::vector<NodeId> ids;
  ids.reserve(model_nodes_.size());
  model_nodes_.for_each(
      [&ids](NodeId id, const ModelNode&) { ids.push_back(id); });
  return ids;
}

void BranchModel::restore_node(ModelNode node) {
  const NodeId id = node.id;
  model_nodes_.insert_or_assign(id, std::move(node));
}

void BranchModel::restore_root(NodeId root) {
  if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
    roots_.push_back(root);
  }
}

void BranchModel::observe_root(NodeId root, RequestId request) {
  (void)request;
  node(root, SelectMode::Auto);
  if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
    roots_.push_back(root);
  }
}

void BranchModel::observe_invocation(NodeId parent, NodeId child,
                                     RequestId request) {
  node(parent, SelectMode::Auto);
  node(child, SelectMode::Auto);  // Discover the child node.

  if (parent.value() >= pending_.size()) pending_.resize(parent.value() + 1);
  PendingBatch& batch = pending_[parent.value()];
  if (!batch.invoked.empty() && batch.request != request) {
    // A new request reached this parent: the previous request's batch is
    // complete, apply it.
    apply_batch(node(parent, SelectMode::Auto), batch);
  }
  batch.request = request;
  const auto at =
      std::lower_bound(batch.invoked.begin(), batch.invoked.end(), child);
  if (at == batch.invoked.end() || *at != child) batch.invoked.insert(at, child);
}

void BranchModel::finalize_pending() {
  // Each batch touches only its own parent, so the application order is
  // almost immaterial -- but flushing in ascending parent order keeps the
  // floating-point update sequence (and hence any persisted probabilities)
  // bit-identical whatever order the parents were observed in.
  for (std::size_t parent = 0; parent < pending_.size(); ++parent) {
    PendingBatch& batch = pending_[parent];
    if (!batch.invoked.empty()) {
      apply_batch(node(NodeId{parent}, SelectMode::Auto), batch);
    }
  }
}

void BranchModel::apply_batch(ModelNode& parent, PendingBatch& batch) {
  // Ensure every invoked child has a branch entry (structure discovery).  A
  // child discovered late starts with probability 0 over the parent's past
  // requests -- rho(C|P) must be invocations-of-C over requests-to-P, not
  // over requests since C was first seen.  The discovery order is observable
  // (it fixes the edge order in parent.children, and with it MLP tie-breaks
  // and persisted documents), so children are appended in ascending order,
  // which is the batch's own order.
  for (const NodeId child : batch.invoked) {
    if (parent.find_child(child) == nullptr) {
      parent.children.push_back(LearnedEdge{child, 0.0, parent.request_count});
    }
  }
  // Algorithm 3, batched per request: invoked branches are reinforced,
  // non-invoked siblings decay.
  for (LearnedEdge& e : parent.children) {
    const auto n = static_cast<double>(e.count);
    if (std::binary_search(batch.invoked.begin(), batch.invoked.end(),
                           e.child)) {
      e.probability = (e.probability * n + 1.0) / (n + 1.0);
    } else {
      e.probability = (e.probability * n) / (n + 1.0);
    }
    ++e.count;
  }
  ++parent.request_count;
  batch.invoked.clear();
}

}  // namespace xanadu::core
