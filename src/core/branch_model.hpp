#pragma once

// Learned workflow model: the branch tree of Algorithm 3.
//
// Xanadu maintains, per workflow, a generative probabilistic model of the
// workflow's runtime branching behaviour.  Each discovered parent node
// carries a request count and a set of child branches with conditional
// probabilities rho(C|P).  On every observed child invocation the invoked
// branch's probability is reinforced and its siblings' probabilities decay
// (Algorithm 3):
//
//     child.probability   <- (p * n + 1) / (n + 1),  child.count++
//     sibling.probability <- (p * n)     / (n + 1),  sibling.count++
//
// For explicit chains the structure (and each node's dispatch mode) is known
// from the workflow schema and only the probabilities are learned; for
// implicit chains both structure and probabilities are learned from the
// parent-id request headers.
//
// Deviation from the paper's listing: observations are batched per
// (parent, request) so that a 1:m multicast parent -- whose children are all
// invoked by the same request -- reinforces every invoked child once and
// decays only the children that were NOT invoked.  Applying the listing
// verbatim per invocation would make sibling probabilities of a pure
// multicast oscillate around 1/m.  For XOR and 1:1 parents (one child per
// request) the batched update reduces exactly to the paper's update.
//
// The batches run on every request, so they live in flat NodeId-indexed
// buffers whose capacity is kept across requests: observing and applying a
// batch allocates nothing once every parent has been seen.  The nodes
// themselves sit in a NodeId-indexed table too, so a model lists them in id
// order.

#include <cstddef>
#include <vector>

#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "workflow/dag.hpp"

namespace xanadu::core {

using common::NodeId;
using common::RequestId;

/// How the MLP algorithm should expand a node's children.
enum class SelectMode {
  /// Append every child (known 1:1 / 1:m structure from an explicit schema).
  All,
  /// Append only the maximum-likelihood child (known XOR conditional).
  MaxLikelihood,
  /// Structure learned from observations: children whose conditional
  /// probability is near 1 co-occur (multicast) and are all appended; the
  /// rest form a conditional group from which the max is taken.
  Auto,
};

struct LearnedEdge {
  NodeId child{};
  double probability = 0.0;
  std::size_t count = 0;
};

struct ModelNode {
  NodeId id{};
  SelectMode select = SelectMode::Auto;
  std::size_t request_count = 0;
  std::vector<LearnedEdge> children;

  [[nodiscard]] const LearnedEdge* find_child(NodeId child) const;
};

/// The per-workflow branch tree.
class BranchModel {
 public:
  BranchModel() = default;

  /// Builds an explicit-chain model: structure and dispatch modes are taken
  /// from the schema; XOR branch probabilities start at a uniform prior and
  /// are refined by observations.  True probabilities are NOT copied -- the
  /// control plane cannot see them.
  [[nodiscard]] static BranchModel from_schema(const workflow::WorkflowDag& dag);

  /// Records that `request` invoked `child` with a parent-id header naming
  /// `parent` (implicit detection path; also used to refine explicit XOR
  /// probabilities).  Structure grows on first sight of a parent/child.
  void observe_invocation(NodeId parent, NodeId child, RequestId request);

  /// Records a root invocation (no parent-id header).
  void observe_root(NodeId root, RequestId request);

  /// Applies any batched-but-unapplied sibling updates, in ascending parent
  /// order.  Call at request completion (and before computing an MLP).
  void finalize_pending();

  [[nodiscard]] const std::vector<NodeId>& roots() const { return roots_; }
  [[nodiscard]] const ModelNode* find(NodeId id) const {
    return model_nodes_.find(id);
  }
  [[nodiscard]] bool known(NodeId id) const { return model_nodes_.contains(id); }
  [[nodiscard]] std::size_t node_count() const { return model_nodes_.size(); }

  /// Every node ever observed or declared, ascending (tree discovery metric:
  /// the paper reports full-tree discovery within 8 triggers of Figure 8's
  /// workflow).
  [[nodiscard]] std::vector<NodeId> known_nodes() const;

  // -- Persistence (used by core::MetadataStore) ---------------------------

  /// Installs a node verbatim, replacing any existing entry.  Used when
  /// restoring a model from the metadata store, which bounds the id first:
  /// the table grows to hold it.
  void restore_node(ModelNode node);
  /// Registers a root without recording an observation.
  void restore_root(NodeId root);

 private:
  /// One parent's observations from one request, not yet applied.
  struct PendingBatch {
    RequestId request{};
    /// Invoked children, ascending and distinct; empty when nothing is
    /// pending.  Cleared, never freed, when the batch is applied.
    std::vector<NodeId> invoked;
  };

  ModelNode& node(NodeId id, SelectMode mode_if_new);
  /// Applies `batch` to `parent` and empties it.
  void apply_batch(ModelNode& parent, PendingBatch& batch);

  std::vector<NodeId> roots_;
  common::IdTable<NodeId, ModelNode> model_nodes_;
  std::vector<PendingBatch> pending_;  // indexed by parent NodeId value
};

}  // namespace xanadu::core
