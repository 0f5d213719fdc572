// Tests for the explicit-chain state-definition language (paper Listing 1).

#include <gtest/gtest.h>

#include "workflow/state_language.hpp"

namespace xanadu::workflow {
namespace {

WorkflowDag must_parse(const std::string& text) {
  auto result = parse_state_language(text);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return std::move(result).value();
}

TEST(StateLanguage, SingleFunction) {
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function", "memory": 256, "runtime": "process",
           "exec_ms": 750, "wait_for": []}
  })");
  ASSERT_EQ(dag.node_count(), 1u);
  const Node& f1 = dag.node(NodeId{0});
  EXPECT_EQ(f1.fn.name, "f1");
  EXPECT_DOUBLE_EQ(f1.fn.memory_mb, 256.0);
  EXPECT_EQ(f1.fn.sandbox, SandboxKind::Process);
  EXPECT_EQ(f1.fn.exec_time, sim::Duration::from_millis(750));
}

TEST(StateLanguage, DefaultsApplyWhenFieldsOmitted) {
  const WorkflowDag dag = must_parse(R"({"f1": {"type": "function"}})");
  const Node& f1 = dag.node(NodeId{0});
  EXPECT_DOUBLE_EQ(f1.fn.memory_mb, 512.0);
  EXPECT_EQ(f1.fn.sandbox, SandboxKind::Container);
  EXPECT_EQ(f1.fn.exec_time, sim::Duration::from_millis(500));
}

TEST(StateLanguage, LinearChainViaWaitFor) {
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function"},
    "f2": {"type": "function", "wait_for": ["f1"]},
    "f3": {"type": "function", "wait_for": ["f2"]}
  })");
  EXPECT_EQ(dag.node_count(), 3u);
  EXPECT_EQ(dag.depth(), 3u);
  EXPECT_EQ(dag.roots().size(), 1u);
}

TEST(StateLanguage, BarrierViaMultipleWaitFor) {
  const WorkflowDag dag = must_parse(R"({
    "a": {"type": "function"},
    "b": {"type": "function"},
    "join": {"type": "function", "wait_for": ["a", "b"]}
  })");
  const NodeId join = dag.find_by_name("join");
  EXPECT_EQ(dag.node(join).parents.size(), 2u);
}

TEST(StateLanguage, ConditionalBuildsXorCast) {
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function", "conditional": "cond1"},
    "cond1": {
      "type": "conditional", "wait_for": ["f1"],
      "condition": {"op1": "f1.x", "op2": 7, "op": "lte"},
      "success_probability": 0.7,
      "success": "branch1", "fail": "branch2"
    },
    "branch1": {"type": "branch", "f3": {"type": "function"}},
    "branch2": {"type": "branch", "f4": {"type": "function"}}
  })");
  const NodeId f1 = dag.find_by_name("f1");
  const Node& root = dag.node(f1);
  EXPECT_EQ(root.dispatch, DispatchMode::Xor);
  ASSERT_EQ(root.children.size(), 2u);
  const NodeId f3 = dag.find_by_name("f3");
  double p3 = 0.0, p4 = 0.0;
  for (const Edge& e : root.children) {
    (e.child == f3 ? p3 : p4) = e.probability;
  }
  EXPECT_NEAR(p3, 0.7, 1e-9);
  EXPECT_NEAR(p4, 0.3, 1e-9);
  EXPECT_EQ(dag.conditional_points(), 1u);
}

TEST(StateLanguage, BranchInternalDependencies) {
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function", "conditional": "c"},
    "c": {"type": "conditional", "wait_for": ["f1"],
          "success": "b1", "fail": "b2"},
    "b1": {"type": "branch",
           "g1": {"type": "function"},
           "g2": {"type": "function", "wait_for": ["g1"]}},
    "b2": {"type": "branch", "h1": {"type": "function"}}
  })");
  EXPECT_EQ(dag.node_count(), 4u);
  const NodeId g2 = dag.find_by_name("g2");
  ASSERT_EQ(dag.node(g2).parents.size(), 1u);
  EXPECT_EQ(dag.node(g2).parents[0], dag.find_by_name("g1"));
}

TEST(StateLanguage, DefaultSuccessProbabilityIsHalf) {
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function", "conditional": "c"},
    "c": {"type": "conditional", "wait_for": ["f1"],
          "success": "b1", "fail": "b2"},
    "b1": {"type": "branch", "g": {"type": "function"}},
    "b2": {"type": "branch", "h": {"type": "function"}}
  })");
  for (const Edge& e : dag.node(dag.find_by_name("f1")).children) {
    EXPECT_NEAR(e.probability, 0.5, 1e-9);
  }
}

TEST(StateLanguage, ErrorsAreDescriptive) {
  auto expect_error = [](const std::string& doc, const std::string& needle) {
    auto result = parse_state_language(doc);
    ASSERT_FALSE(result.ok()) << doc;
    EXPECT_NE(result.error().message.find(needle), std::string::npos)
        << result.error().message;
  };
  expect_error("not json", "json:");
  expect_error("[]", "must be a JSON object");
  expect_error("{}", "no functions");
  expect_error(R"({"f": {"type": "widget"}})", "unknown type");
  expect_error(R"({"f": {"type": "function", "memory": -5}})", "memory");
  expect_error(R"({"f": {"type": "function", "runtime": "vm"}})", "sandbox");
  expect_error(R"({"f": {"type": "function", "wait_for": ["ghost"]}})",
               "unknown function");
  expect_error(R"({
    "f": {"type": "function"},
    "c": {"type": "conditional", "wait_for": ["f"],
          "success": "nope", "fail": "nope"}
  })", "unknown or empty");
  expect_error(R"({
    "f": {"type": "function"},
    "c": {"type": "conditional", "wait_for": ["f", "f2"],
          "success": "b", "fail": "b"}
  })", "exactly one");
  expect_error(R"({
    "f": {"type": "function"},
    "c": {"type": "conditional", "wait_for": ["f"],
          "success_probability": 1.5, "success": "b", "fail": "b"},
    "b": {"type": "branch", "g": {"type": "function"}}
  })", "success_probability");
}

// 1e300 ms overflows Duration::from_millis's int64 cast; the loader must
// reject it with an error naming the field, before any cast.
TEST(StateLanguage, OutOfRangeMillisecondFieldsNameTheField) {
  const struct {
    const char* field;
    const char* doc;
  } cases[] = {
      {"'exec_ms'", R"({"f": {"type": "function", "exec_ms": 1e300}})"},
      {"'exec_jitter_ms'",
       R"({"f": {"type": "function", "exec_jitter_ms": 1e300}})"},
      {"'trigger_delay_ms'", R"({
        "a": {"type": "function"},
        "b": {"type": "function", "wait_for": ["a"], "trigger_delay_ms": 1e300}
      })"},
  };
  for (const auto& c : cases) {
    auto result = parse_state_language(c.doc);
    ASSERT_FALSE(result.ok()) << c.doc;
    EXPECT_NE(result.error().message.find(c.field), std::string::npos)
        << result.error().message;
  }
}

TEST(StateLanguage, TwoConditionalsOnOneParentRejected) {
  auto result = parse_state_language(R"({
    "f": {"type": "function"},
    "c1": {"type": "conditional", "wait_for": ["f"],
           "success": "b1", "fail": "b2"},
    "c2": {"type": "conditional", "wait_for": ["f"],
           "success": "b1", "fail": "b2"},
    "b1": {"type": "branch", "g": {"type": "function"}},
    "b2": {"type": "branch", "h": {"type": "function"}}
  })");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("more than one"), std::string::npos);
}

// WorkflowDag::add_edge throws on these; the loader must turn the throw
// into an Error instead of letting it escape to the CLI.
TEST(StateLanguage, SelfWaitForIsAnError) {
  auto result = parse_state_language(
      R"({"f": {"type": "function", "wait_for": ["f"]}})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("self edge"), std::string::npos)
      << result.error().message;
}

TEST(StateLanguage, DuplicateWaitForIsAnError) {
  auto result = parse_state_language(R"({
    "a": {"type": "function"},
    "b": {"type": "function", "wait_for": ["a", "a"]}
  })");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("duplicate edge"), std::string::npos)
      << result.error().message;
}

TEST(StateLanguage, NamesThatBreakTheTraceCsvAreErrors) {
  for (const char* doc :
       {R"({"a,b": {"type": "function"}})", R"({"a;b": {"type": "function"}})",
        R"({"a\nb": {"type": "function"}})",
        R"({"a\rb": {"type": "function"}})"}) {
    auto result = parse_state_language(doc);
    ASSERT_FALSE(result.ok()) << doc;
    EXPECT_NE(result.error().message.find("invalid workflow"),
              std::string::npos)
        << result.error().message;
  }
}

TEST(StateLanguage, PaperListingOneShape) {
  // The structure of Listing 1: f1 guarded by a conditional with two
  // branches, each branch holding a downstream function.
  const WorkflowDag dag = must_parse(R"({
    "f1": {"type": "function", "memory": 512, "runtime": "container",
           "wait_for": [], "conditional": "condition1"},
    "condition1": {"type": "conditional", "wait_for": ["f1"],
                   "condition": {"op1": "f1.x", "op2": 7, "op": "lte"},
                   "success": "branch1", "fail": "branch2"},
    "branch1": {"type": "branch", "f3": {"type": "function"}},
    "branch2": {"type": "branch", "f4": {"type": "function"}}
  })");
  EXPECT_EQ(dag.node_count(), 3u);
  EXPECT_EQ(dag.depth(), 2u);
  EXPECT_EQ(dag.conditional_points(), 1u);
  EXPECT_NO_THROW(dag.validate());
}

}  // namespace
}  // namespace xanadu::workflow
