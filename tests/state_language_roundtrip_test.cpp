// Round-trip property tests: exporting a workflow to the state-definition
// language and re-parsing it must reconstruct an equivalent DAG.

#include <gtest/gtest.h>

#include <map>

#include "core/dispatch_manager.hpp"
#include "workflow/builders.hpp"
#include "workflow/random_tree.hpp"
#include "workflow/state_language.hpp"

namespace xanadu::workflow {
namespace {

/// Structural equivalence by function name: specs, parent sets, dispatch
/// modes, and XOR probability splits.
void expect_equivalent(const WorkflowDag& a, const WorkflowDag& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.depth(), b.depth());
  EXPECT_EQ(a.conditional_points(), b.conditional_points());
  for (const Node& node : a.nodes()) {
    const NodeId other_id = b.find_by_name(node.fn.name);
    ASSERT_TRUE(other_id.valid()) << node.fn.name;
    const Node& other = b.node(other_id);
    EXPECT_DOUBLE_EQ(node.fn.memory_mb, other.fn.memory_mb);
    EXPECT_EQ(node.fn.sandbox, other.fn.sandbox);
    EXPECT_EQ(node.fn.exec_time.micros(), other.fn.exec_time.micros());
    // Parent names must match as sets.
    std::multiset<std::string> parents_a, parents_b;
    for (const NodeId p : node.parents) parents_a.insert(a.node(p).fn.name);
    for (const NodeId p : other.parents) parents_b.insert(b.node(p).fn.name);
    EXPECT_EQ(parents_a, parents_b) << node.fn.name;
    // XOR probabilities (normalised) must match per child name.
    if (node.dispatch == DispatchMode::Xor && node.children.size() == 2) {
      EXPECT_EQ(other.dispatch, DispatchMode::Xor);
      std::map<std::string, double> probs_a, probs_b;
      double total_a = 0, total_b = 0;
      for (const Edge& e : node.children) total_a += e.probability;
      for (const Edge& e : other.children) total_b += e.probability;
      for (const Edge& e : node.children) {
        probs_a[a.node(e.child).fn.name] = e.probability / total_a;
      }
      for (const Edge& e : other.children) {
        probs_b[b.node(e.child).fn.name] = e.probability / total_b;
      }
      ASSERT_EQ(probs_a.size(), probs_b.size());
      for (const auto& [name, p] : probs_a) {
        ASSERT_TRUE(probs_b.contains(name));
        EXPECT_NEAR(p, probs_b.at(name), 1e-9) << name;
      }
    }
  }
}

WorkflowDag roundtrip(const WorkflowDag& dag) {
  auto text = to_state_language(dag);
  EXPECT_TRUE(text.ok()) << (text.ok() ? "" : text.error().message);
  auto parsed = parse_state_language(text.value(), dag.name());
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  return std::move(parsed).value();
}

TEST(StateLanguageRoundTrip, LinearChain) {
  BuildOptions opts;
  opts.exec_time = sim::Duration::from_millis(750);
  opts.memory_mb = 256;
  opts.sandbox = SandboxKind::Process;
  const WorkflowDag dag = linear_chain(5, opts);
  expect_equivalent(dag, roundtrip(dag));
}

TEST(StateLanguageRoundTrip, FanOutAndFanIn) {
  expect_equivalent(fan_out(4), roundtrip(fan_out(4)));
  expect_equivalent(fan_in(3), roundtrip(fan_in(3)));
  expect_equivalent(diamond(3), roundtrip(diamond(3)));
}

TEST(StateLanguageRoundTrip, ConditionalTree) {
  // A hand-built two-level conditional tree with uneven probabilities.
  WorkflowDag dag{"cond"};
  FunctionSpec spec;
  spec.name = "root";
  spec.exec_time = sim::Duration::from_millis(300);
  const auto root = dag.add_node(spec, DispatchMode::Xor);
  spec.name = "left";
  const auto left = dag.add_node(spec, DispatchMode::Xor);
  spec.name = "right";
  const auto right = dag.add_node(spec);
  spec.name = "ll";
  const auto ll = dag.add_node(spec);
  spec.name = "lr";
  const auto lr = dag.add_node(spec);
  dag.add_edge(root, left, 0.7);
  dag.add_edge(root, right, 0.3);
  dag.add_edge(left, ll, 0.9);
  dag.add_edge(left, lr, 0.1);
  dag.validate();
  expect_equivalent(dag, roundtrip(dag));
}

class RandomTreeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeRoundTrip, RandomBinaryTreesSurviveRoundTrip) {
  common::Rng rng{GetParam()};
  for (std::size_t nodes = 1; nodes <= 10; ++nodes) {
    RandomTreeOptions opts;
    opts.node_count = nodes;
    const WorkflowDag dag = random_binary_tree(opts, rng);
    expect_equivalent(dag, roundtrip(dag));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeRoundTrip,
                         ::testing::Values(2u, 5u, 19u, 83u));

TEST(StateLanguageRoundTrip, ExecutionBehaviourIsPreserved) {
  // Beyond structure: the re-parsed workflow must produce identical
  // deterministic execution results.
  common::Rng rng{7};
  RandomTreeOptions opts;
  opts.node_count = 7;
  const WorkflowDag original = random_binary_tree(opts, rng);
  const WorkflowDag reparsed = roundtrip(original);

  auto run = [](const WorkflowDag& dag) {
    core::DispatchManagerOptions options;
    options.kind = core::PlatformKind::XanaduCold;
    options.seed = 31;
    core::DispatchManager manager{options};
    const auto wf = manager.deploy(dag);
    double total = 0;
    for (int i = 0; i < 5; ++i) {
      manager.force_cold_start();
      total += manager.invoke(wf).end_to_end.millis();
    }
    return total;
  };
  EXPECT_DOUBLE_EQ(run(original), run(reparsed));
}

TEST(StateLanguageWriter, RejectsInexpressibleWorkflows) {
  // Three-way XOR cannot be expressed as success/fail.
  XorCastOptions xor_opts;
  xor_opts.levels = 1;
  xor_opts.fan = 3;
  auto result = to_state_language(xor_cast_dag(xor_opts));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("success/fail"), std::string::npos);

  // An XOR child with a second parent cannot be a branch entry.
  WorkflowDag dag{"bad"};
  FunctionSpec spec;
  spec.name = "x";
  const auto x = dag.add_node(spec, DispatchMode::Xor);
  spec.name = "other";
  const auto other = dag.add_node(spec);
  spec.name = "a";
  const auto a = dag.add_node(spec);
  spec.name = "b";
  const auto b = dag.add_node(spec);
  dag.add_edge(x, a, 0.5);
  dag.add_edge(x, b, 0.5);
  dag.add_edge(other, a);
  auto multi = to_state_language(dag);
  ASSERT_FALSE(multi.ok());
  EXPECT_NE(multi.error().message.find("multiple parents"), std::string::npos);
}

TEST(StateLanguageWriter, JitterFieldRoundTrips) {
  BuildOptions opts;
  opts.exec_jitter = sim::Duration::from_millis(35);
  const WorkflowDag dag = linear_chain(2, opts);
  const WorkflowDag back = roundtrip(dag);
  EXPECT_EQ(back.node(NodeId{0}).fn.exec_jitter.micros(),
            sim::Duration::from_millis(35).micros());
}

}  // namespace
}  // namespace xanadu::workflow
