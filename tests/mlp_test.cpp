// Tests for MLP estimation (Algorithm 1 / Equation 3).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/mlp.hpp"
#include "workflow/builders.hpp"

namespace xanadu::core {
namespace {

using common::RequestId;

bool on_path(const MlpResult& mlp, NodeId id) {
  return std::find(mlp.path.begin(), mlp.path.end(), id) != mlp.path.end();
}

TEST(Mlp, LinearChainWholePath) {
  const auto dag = workflow::linear_chain(5);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_EQ(mlp.path.size(), 5u);
  // Parents before children.
  for (std::size_t i = 0; i + 1 < mlp.path.size(); ++i) {
    EXPECT_LT(mlp.path[i].value(), mlp.path[i + 1].value());
  }
}

TEST(Mlp, MulticastIncludesAllChildren) {
  const auto dag = workflow::fan_out(4);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_EQ(mlp.path.size(), 5u);
}

TEST(Mlp, ExplicitXorPicksLearnedFavourite) {
  workflow::XorCastOptions opts;
  opts.levels = 1;
  opts.fan = 3;
  const auto dag = workflow::xor_cast_dag(opts);
  BranchModel model = BranchModel::from_schema(dag);
  const NodeId root{0}, b1{1}, b2{2};
  // Observe b2 twice, b1 once.
  model.observe_invocation(root, b2, RequestId{1});
  model.observe_invocation(root, b1, RequestId{2});
  model.observe_invocation(root, b2, RequestId{3});
  model.finalize_pending();
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_TRUE(on_path(mlp, b2));
  EXPECT_FALSE(on_path(mlp, b1));
  ASSERT_TRUE(mlp.predicted_choice(root).valid());
  EXPECT_EQ(mlp.predicted_choice(root), b2);
}

TEST(Mlp, UnobservedExplicitXorFollowsPriorDeterministically) {
  workflow::XorCastOptions opts;
  opts.levels = 2;
  opts.fan = 2;
  const auto dag = workflow::xor_cast_dag(opts);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult a = estimate_mlp(model);
  const MlpResult b = estimate_mlp(model);
  // Uniform prior: ties broken by node id, deterministically.  (The tie
  // winner B1 is a leaf in the Figure 8 shape -- only the favoured branch
  // has descendants -- so the prior-driven path is root + B1.)
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.path.size(), 2u);
  EXPECT_EQ(a.path[0], NodeId{0});
  EXPECT_EQ(a.path[1], NodeId{1});
}

TEST(Mlp, LikelihoodOfRootIsOne) {
  const auto dag = workflow::linear_chain(2);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_DOUBLE_EQ(mlp.likelihood(NodeId{0}), 1.0);
}

TEST(Mlp, LikelihoodSumsAcrossParents) {
  // Diamond: root multicasts to two mids, both feed the sink.  The sink's
  // likelihood factor is the sum over its parents (Equation 3) and exceeds 1
  // (the paper notes the bound does not hold for m:n relationships).
  const auto dag = workflow::diamond(2);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult mlp = estimate_mlp(model);
  const NodeId sink{1};  // diamond() adds sink as the second node.
  ASSERT_TRUE(on_path(mlp, sink));
  EXPECT_DOUBLE_EQ(mlp.likelihood(sink), 2.0);
}

TEST(Mlp, EmptyModelYieldsEmptyPath) {
  const BranchModel model;
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_TRUE(mlp.path.empty());
}

TEST(Mlp, ImplicitModelAutoDetectsConditional) {
  // Learned-only model: parent takes child a 80% of the time, child b 20%.
  BranchModel model;
  const NodeId p{0}, a{1}, b{2};
  model.observe_root(p, RequestId{0});
  std::uint64_t req = 1;
  for (int i = 0; i < 8; ++i) model.observe_invocation(p, a, RequestId{req++});
  for (int i = 0; i < 2; ++i) model.observe_invocation(p, b, RequestId{req++});
  model.finalize_pending();
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_TRUE(on_path(mlp, a));
  EXPECT_FALSE(on_path(mlp, b));
  ASSERT_TRUE(mlp.predicted_choice(p).valid());
  EXPECT_EQ(mlp.predicted_choice(p), a);
}

TEST(Mlp, ImplicitModelAutoDetectsMulticast) {
  // Both children invoked on every request: probabilities ~1 -> both on MLP.
  BranchModel model;
  const NodeId p{0}, a{1}, b{2};
  model.observe_root(p, RequestId{0});
  for (std::uint64_t r = 1; r <= 6; ++r) {
    model.observe_invocation(p, a, RequestId{r});
    model.observe_invocation(p, b, RequestId{r});
  }
  model.finalize_pending();
  const MlpResult mlp = estimate_mlp(model);
  EXPECT_TRUE(on_path(mlp, a));
  EXPECT_TRUE(on_path(mlp, b));
  // A multicast is not a conditional: no predicted choice recorded.
  EXPECT_FALSE(mlp.predicted_choice(p).valid());
}

TEST(Mlp, EstimateFromSeedWalksSubtree) {
  const auto dag = workflow::linear_chain(6);
  const BranchModel model = BranchModel::from_schema(dag);
  const MlpResult mlp = estimate_mlp_from(model, {NodeId{3}});
  EXPECT_EQ(mlp.path.size(), 3u);  // Nodes 3, 4, 5.
  EXPECT_TRUE(on_path(mlp, NodeId{3}));
  EXPECT_TRUE(on_path(mlp, NodeId{5}));
  EXPECT_FALSE(on_path(mlp, NodeId{0}));
}

TEST(Mlp, ConvergesToTrueMlpOfXorCastDag) {
  // Simulate learning on the Figure 8 DAG: feed observations that follow
  // the true probabilities and check that the estimated MLP converges to
  // the true MLP (Section 3.1 reports convergence within 7 triggers).
  workflow::XorCastOptions opts;  // 4 levels, fan 3, 0.7 favoured.
  const auto dag = workflow::xor_cast_dag(opts);
  BranchModel model = BranchModel::from_schema(dag);
  common::Rng rng{1234};

  const auto true_mlp = workflow::true_most_likely_path(dag);
  std::uint64_t request = 0;
  int converged_at = -1;
  for (int trigger = 1; trigger <= 40; ++trigger) {
    // Walk the DAG sampling XOR branches by true probability.
    NodeId node = dag.roots().front();
    ++request;
    while (true) {
      const auto& children = dag.node(node).children;
      if (children.empty()) break;
      std::vector<double> weights;
      for (const auto& e : children) weights.push_back(e.probability);
      const NodeId next = children[rng.weighted_index(weights)].child;
      model.observe_invocation(node, next, RequestId{request});
      node = next;
    }
    model.finalize_pending();
    const MlpResult mlp = estimate_mlp(model);
    std::vector<NodeId> sorted = mlp.path;
    std::sort(sorted.begin(), sorted.end());
    if (sorted == true_mlp) {
      if (converged_at < 0) converged_at = trigger;
    } else {
      converged_at = -1;  // Oscillated; reset.
    }
  }
  EXPECT_GT(converged_at, 0);
  EXPECT_LE(converged_at, 25);
}

}  // namespace
}  // namespace xanadu::core
