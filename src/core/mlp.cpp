#include "core/mlp.hpp"

#include <utility>

namespace xanadu::core {

MlpResult estimate_mlp(const BranchModel& model, const MlpOptions& options,
                       MlpResult storage) {
  return estimate_mlp_from(model, model.roots(), options, std::move(storage));
}

MlpResult estimate_mlp_from(const BranchModel& model,
                            const std::vector<NodeId>& seeds,
                            const MlpOptions& options, MlpResult result) {
  result.path.clear();
  for (MlpResult::NodeEstimate& node : result.nodes_) node = {};

  auto append = [&](NodeId id, double likelihood) {
    if (result.contains(id)) {
      // A node reachable from several MLP parents (m:1) is appended once;
      // its likelihood keeps the accumulated sum.
      result.nodes_[id.value()].likelihood += likelihood;
      return;
    }
    if (id.value() >= result.nodes_.size()) {
      result.nodes_.resize(id.value() + 1);
    }
    result.path.push_back(id);
    result.nodes_[id.value()] = {likelihood, NodeId{}, true};
  };
  auto predict = [&](NodeId parent, NodeId child) {
    result.nodes_[parent.value()].predicted = child;
  };

  for (const NodeId seed : seeds) append(seed, 1.0);

  // Breadth-first: the frontier is the unvisited tail of the path, so the
  // walk visits path nodes in the order they were appended.
  for (std::size_t next = 0; next < result.path.size(); ++next) {
    const NodeId id = result.path[next];
    const ModelNode* parent = model.find(id);
    if (parent == nullptr || parent->children.empty()) continue;

    // Split the children into always-taken (multicast) edges, appended here,
    // and conditional candidates, among which the best is taken below.
    bool conditional_all = false;  // every child is a candidate
    switch (parent->select) {
      case SelectMode::All:
        for (const LearnedEdge& e : parent->children) {
          append(e.child, e.probability > 0.0 ? e.probability : 1.0);
        }
        continue;
      case SelectMode::MaxLikelihood:
        conditional_all = true;
        break;
      case SelectMode::Auto: {
        if (parent->children.size() == 1) {
          // Single known child: 1:1 edge.
          const LearnedEdge& e = parent->children.front();
          append(e.child, e.probability > 0.0 ? e.probability : 1.0);
          continue;
        }
        // Children near probability 1 co-occur (multicast); the rest form a
        // conditional group -- but only when that group carries substantial
        // probability mass of its own.  A heavily biased XOR (0.9 / 0.1)
        // must NOT be read as "multicast to the favourite plus a separate
        // conditional among the losers": the favourite IS the prediction.
        const LearnedEdge* favourite = nullptr;
        std::size_t high = 0;
        std::size_t low = 0;
        double low_mass = 0.0;
        for (const LearnedEdge& e : parent->children) {
          if (e.probability >= options.multicast_threshold) {
            append(e.child, e.probability);
            favourite = &e;
            ++high;
          } else {
            ++low;
            low_mass += e.probability;
          }
        }
        if (low == 0) continue;
        if (high > 0 && low_mass < 0.5) {
          // Biased conditional: the high-probability child already appended
          // is the predicted branch; the low-mass siblings are misses.
          if (high == 1) predict(id, favourite->child);
          continue;
        }
        break;
      }
    }

    // Algorithm 1: among conditional siblings append the child with the
    // maximum likelihood factor L_j (Equation 3).  With a single parent the
    // factor is just rho(C_j|P_i); likelihoods accumulated from several MLP
    // parents are handled by append().
    const LearnedEdge* best = nullptr;
    for (const LearnedEdge& e : parent->children) {
      if (!conditional_all && e.probability >= options.multicast_threshold) {
        continue;
      }
      if (best == nullptr || e.probability > best->probability ||
          (e.probability == best->probability && e.child < best->child)) {
        best = &e;
      }
    }
    // An explicit conditional with no observations yet follows the uniform
    // prior (deterministic tie-break by node id).
    if (best != nullptr && (best->probability > 0.0 ||
                            parent->select == SelectMode::MaxLikelihood)) {
      append(best->child, best->probability);
      predict(id, best->child);
    }
  }
  return result;
}

}  // namespace xanadu::core
