// Unit tests for the workflow DAG model and shape builders.

#include <gtest/gtest.h>

#include <algorithm>

#include "workflow/builders.hpp"
#include "workflow/dag.hpp"

namespace xanadu::workflow {
namespace {

FunctionSpec spec(const std::string& name) {
  FunctionSpec s;
  s.name = name;
  return s;
}

// ----------------------------------------------------------------- dag ----

TEST(Dag, AddNodeAssignsSequentialIds) {
  WorkflowDag dag;
  EXPECT_EQ(dag.add_node(spec("a")).value(), 0u);
  EXPECT_EQ(dag.add_node(spec("b")).value(), 1u);
  EXPECT_EQ(dag.node_count(), 2u);
}

TEST(Dag, NodeValidatesFunctionSpec) {
  WorkflowDag dag;
  FunctionSpec bad;
  bad.name = "";  // Empty name is rejected.
  EXPECT_THROW(dag.add_node(bad), std::invalid_argument);
  FunctionSpec negative = spec("x");
  negative.memory_mb = -1;
  EXPECT_THROW(dag.add_node(negative), std::invalid_argument);
}

TEST(Dag, EdgesWireParentsAndChildren) {
  WorkflowDag dag;
  const NodeId a = dag.add_node(spec("a"));
  const NodeId b = dag.add_node(spec("b"));
  dag.add_edge(a, b);
  EXPECT_EQ(dag.node(a).children.size(), 1u);
  EXPECT_EQ(dag.node(a).children[0].child, b);
  ASSERT_EQ(dag.node(b).parents.size(), 1u);
  EXPECT_EQ(dag.node(b).parents[0], a);
}

TEST(Dag, RejectsBadEdges) {
  WorkflowDag dag;
  const NodeId a = dag.add_node(spec("a"));
  const NodeId b = dag.add_node(spec("b"));
  EXPECT_THROW(dag.add_edge(a, a), std::invalid_argument);            // self
  EXPECT_THROW(dag.add_edge(a, NodeId{99}), std::invalid_argument);   // range
  EXPECT_THROW(dag.add_edge(a, b, 0.0), std::invalid_argument);       // prob
  EXPECT_THROW(dag.add_edge(a, b, -0.5), std::invalid_argument);      // prob
  dag.add_edge(a, b);
  EXPECT_THROW(dag.add_edge(a, b), std::invalid_argument);            // dup
}

TEST(Dag, RootsAndSinks) {
  WorkflowDag dag;
  const NodeId a = dag.add_node(spec("a"));
  const NodeId b = dag.add_node(spec("b"));
  const NodeId c = dag.add_node(spec("c"));
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  EXPECT_EQ(dag.roots(), (std::vector<NodeId>{a, b}));
  EXPECT_EQ(dag.sinks(), std::vector<NodeId>{c});
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  WorkflowDag dag;
  const NodeId a = dag.add_node(spec("a"));
  const NodeId b = dag.add_node(spec("b"));
  const NodeId c = dag.add_node(spec("c"));
  const NodeId d = dag.add_node(spec("d"));
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);
  const auto order = dag.topological_order();
  auto pos = [&](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(d));
  EXPECT_LT(pos(c), pos(d));
}

TEST(Dag, CycleDetection) {
  WorkflowDag dag;
  const NodeId a = dag.add_node(spec("a"));
  const NodeId b = dag.add_node(spec("b"));
  const NodeId c = dag.add_node(spec("c"));
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  dag.add_edge(c, a);
  EXPECT_THROW(dag.topological_order(), std::invalid_argument);
  EXPECT_THROW(dag.validate(), std::invalid_argument);
}

TEST(Dag, DepthOfShapes) {
  EXPECT_EQ(linear_chain(1).depth(), 1u);
  EXPECT_EQ(linear_chain(7).depth(), 7u);
  EXPECT_EQ(fan_out(4).depth(), 2u);
  EXPECT_EQ(fan_in(4).depth(), 2u);
  EXPECT_EQ(diamond(3).depth(), 3u);
}

TEST(Dag, ConditionalPointsCountsXorNodes) {
  EXPECT_EQ(linear_chain(5).conditional_points(), 0u);
  XorCastOptions opts;
  opts.levels = 3;
  EXPECT_EQ(xor_cast_dag(opts).conditional_points(), 3u);
}

TEST(Dag, ValidateRejectsEmptyAndDuplicateNames) {
  WorkflowDag empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
  WorkflowDag dup;
  dup.add_node(spec("same"));
  dup.add_node(spec("same"));
  EXPECT_THROW(dup.validate(), std::invalid_argument);
}

TEST(Dag, ValidateRejectsNamesThatBreakTheTraceCsv) {
  for (const char* name : {"a,b", "a;b", "a\rb", "a\nb"}) {
    WorkflowDag dag;
    dag.add_node(spec(name));
    EXPECT_THROW(dag.validate(), std::invalid_argument) << name;
  }
  WorkflowDag fine;
  fine.add_node(spec("resize-image_v2.small"));
  EXPECT_NO_THROW(fine.validate());
}

TEST(Dag, FindByName) {
  const WorkflowDag dag = linear_chain(3);
  EXPECT_TRUE(dag.find_by_name("f2").valid());
  EXPECT_FALSE(dag.find_by_name("nope").valid());
}

TEST(Dag, SandboxKindRoundTrip) {
  for (const SandboxKind kind :
       {SandboxKind::Container, SandboxKind::Process, SandboxKind::Isolate}) {
    EXPECT_EQ(sandbox_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)sandbox_kind_from_string("vm"), std::invalid_argument);
}

// ------------------------------------------------------------ builders ----

TEST(Builders, LinearChainStructure) {
  const WorkflowDag dag = linear_chain(4);
  EXPECT_EQ(dag.node_count(), 4u);
  EXPECT_EQ(dag.roots().size(), 1u);
  EXPECT_EQ(dag.sinks().size(), 1u);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_EQ(dag.node(NodeId{i}).children.size(), 1u);
  }
  EXPECT_THROW(linear_chain(0), std::invalid_argument);
}

TEST(Builders, BuildOptionsPropagate) {
  BuildOptions opts;
  opts.exec_time = sim::Duration::from_seconds(5);
  opts.memory_mb = 256;
  opts.sandbox = SandboxKind::Isolate;
  const WorkflowDag dag = linear_chain(2, opts);
  EXPECT_EQ(dag.node(NodeId{0}).fn.exec_time, sim::Duration::from_seconds(5));
  EXPECT_DOUBLE_EQ(dag.node(NodeId{1}).fn.memory_mb, 256);
  EXPECT_EQ(dag.node(NodeId{1}).fn.sandbox, SandboxKind::Isolate);
}

TEST(Builders, FanOutIsMulticast) {
  const WorkflowDag dag = fan_out(4);
  EXPECT_EQ(dag.node_count(), 5u);
  EXPECT_EQ(dag.node(NodeId{0}).dispatch, DispatchMode::All);
  EXPECT_EQ(dag.node(NodeId{0}).children.size(), 4u);
}

TEST(Builders, FanInIsBarrier) {
  const WorkflowDag dag = fan_in(3);
  EXPECT_EQ(dag.node_count(), 4u);
  EXPECT_EQ(dag.node(NodeId{3}).parents.size(), 3u);
}

TEST(Builders, XorCastDagShape) {
  XorCastOptions opts;  // 4 levels, fan 3, favoured index 1, p = 0.7
  const WorkflowDag dag = xor_cast_dag(opts);
  // 1 root + 4 levels * 3 children.
  EXPECT_EQ(dag.node_count(), 13u);
  const Node& root = dag.node(NodeId{0});
  EXPECT_EQ(root.dispatch, DispatchMode::Xor);
  ASSERT_EQ(root.children.size(), 3u);
  double total = 0.0;
  for (const Edge& e : root.children) total += e.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(root.children[1].probability, 0.7, 1e-9);
  EXPECT_NEAR(root.children[0].probability, 0.15, 1e-9);
}

TEST(Builders, XorCastValidation) {
  XorCastOptions bad;
  bad.levels = 0;
  EXPECT_THROW(xor_cast_dag(bad), std::invalid_argument);
  bad = {};
  bad.fan = 1;
  EXPECT_THROW(xor_cast_dag(bad), std::invalid_argument);
  bad = {};
  bad.main_probability = 1.0;
  EXPECT_THROW(xor_cast_dag(bad), std::invalid_argument);
  bad = {};
  bad.favoured_index = 5;
  EXPECT_THROW(xor_cast_dag(bad), std::invalid_argument);
}

TEST(Builders, TrueMlpFollowsFavouredBranch) {
  XorCastOptions opts;
  const WorkflowDag dag = xor_cast_dag(opts);
  const auto mlp = true_most_likely_path(dag);
  // Root + one favoured node per level.
  EXPECT_EQ(mlp.size(), 1u + opts.levels);
  // Each favoured node has name letter + "2" (index 1).
  for (const NodeId id : mlp) {
    const std::string& name = dag.node(id).fn.name;
    EXPECT_TRUE(name == "A" || name.substr(1) == "2") << name;
  }
}

TEST(Builders, TrueMlpOfLinearChainIsWholeChain) {
  const WorkflowDag dag = linear_chain(5);
  EXPECT_EQ(true_most_likely_path(dag).size(), 5u);
}

TEST(Builders, TrueMlpOfFanOutIncludesAllChildren) {
  const WorkflowDag dag = fan_out(4);
  EXPECT_EQ(true_most_likely_path(dag).size(), 5u);
}

}  // namespace
}  // namespace xanadu::workflow
