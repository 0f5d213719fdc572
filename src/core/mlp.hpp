#pragma once

// Most-Likely-Path (MLP) estimation -- paper Section 3.1, Algorithm 1.
//
// Starting from the workflow roots, the estimator walks the learned branch
// model breadth-first.  A child's likelihood factor is the sum of its
// conditional probabilities over all parents already on the MLP:
//
//     L_j = sum_i rho(C_j | P_i)                                (Equation 3)
//
// At each conditional sibling group the child with the maximum likelihood
// factor is appended to the MLP; multicast children are all appended (for
// 1:1 and XOR relationships L is upper-bounded by 1 and behaves like a
// probability; for multicast and m:n it can exceed 1, as the paper notes).

#include <vector>

#include "core/branch_model.hpp"

namespace xanadu::core {

struct MlpOptions {
  /// Children of an Auto-mode node with probability >= this threshold are
  /// treated as multicast (always invoked) rather than conditional
  /// candidates.
  double multicast_threshold = 0.85;
};

/// Outcome of Algorithm 1.  Per-node answers come from flat buffers indexed
/// by NodeId value.
class MlpResult {
 public:
  /// Nodes on the most likely path, in breadth-first discovery order
  /// (parents before children).  A caller may truncate it (the
  /// aggressiveness cut); the accessors below keep describing the whole
  /// estimate.
  std::vector<NodeId> path;

  /// True for every node the estimate put on the path.
  [[nodiscard]] bool contains(NodeId id) const {
    return id.value() < nodes_.size() && nodes_[id.value()].on_path;
  }
  /// Likelihood factor L_j of a path node (roots get 1.0); 0 off the path.
  [[nodiscard]] double likelihood(NodeId id) const {
    return contains(id) ? nodes_[id.value()].likelihood : 0.0;
  }
  /// For an Xor/conditional parent on the path, the child predicted to be
  /// taken (used for prediction-miss detection); invalid otherwise.
  [[nodiscard]] NodeId predicted_choice(NodeId parent) const {
    return parent.value() < nodes_.size() ? nodes_[parent.value()].predicted
                                          : NodeId{};
  }

 private:
  friend MlpResult estimate_mlp_from(const BranchModel& model,
                                     const std::vector<NodeId>& seeds,
                                     const MlpOptions& options,
                                     MlpResult storage);

  struct NodeEstimate {
    double likelihood = 0.0;
    NodeId predicted{};
    bool on_path = false;
  };
  std::vector<NodeEstimate> nodes_;
};

/// Runs Algorithm 1 over a learned branch model, from its roots.
///
/// `storage` is a spent result whose buffers are reused: pass the previous
/// estimate back in (`r = estimate_mlp(model, options, std::move(r))`) and
/// a steady-state estimate allocates nothing.
[[nodiscard]] MlpResult estimate_mlp(const BranchModel& model,
                                     const MlpOptions& options = {},
                                     MlpResult storage = {});

/// Runs Algorithm 1 starting from explicit seed nodes instead of the model
/// roots.  Used by the miss-replanning extension to re-estimate the path
/// from the branch a request actually took.  `storage` as above.
[[nodiscard]] MlpResult estimate_mlp_from(const BranchModel& model,
                                          const std::vector<NodeId>& seeds,
                                          const MlpOptions& options = {},
                                          MlpResult storage = {});

}  // namespace xanadu::core
