// Tests for the metadata store (CouchDB stand-in): JSON round-trips of the
// learned branch model and profiles, corrupt-document handling, and a full
// control-plane warm restart.

#include <gtest/gtest.h>

#include <string>

#include "core/dispatch_manager.hpp"
#include "core/metadata_store.hpp"
#include "workflow/builders.hpp"

namespace xanadu::core {
namespace {

using common::NodeId;
using common::RequestId;

BranchModel learned_model() {
  BranchModel model;
  model.observe_root(NodeId{0}, RequestId{1});
  model.observe_invocation(NodeId{0}, NodeId{1}, RequestId{1});
  model.observe_invocation(NodeId{0}, NodeId{2}, RequestId{2});
  model.observe_invocation(NodeId{0}, NodeId{1}, RequestId{3});
  model.observe_invocation(NodeId{1}, NodeId{3}, RequestId{3});
  model.finalize_pending();
  return model;
}

TEST(MetadataStore, BranchModelRoundTrip) {
  const BranchModel original = learned_model();
  auto restored = branch_model_from_json(to_json(original));
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const BranchModel& model = restored.value();
  EXPECT_EQ(model.node_count(), original.node_count());
  EXPECT_EQ(model.roots(), original.roots());
  for (const NodeId id : original.known_nodes()) {
    const ModelNode* a = original.find(id);
    const ModelNode* b = model.find(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->select, b->select);
    EXPECT_EQ(a->request_count, b->request_count);
    ASSERT_EQ(a->children.size(), b->children.size());
    for (std::size_t i = 0; i < a->children.size(); ++i) {
      EXPECT_EQ(a->children[i].child, b->children[i].child);
      EXPECT_DOUBLE_EQ(a->children[i].probability, b->children[i].probability);
      EXPECT_EQ(a->children[i].count, b->children[i].count);
    }
  }
}

TEST(MetadataStore, ProfileTableRoundTrip) {
  ProfileTable original{0.25};
  original.function(NodeId{0}).observe_cold_response(sim::Duration::from_millis(4200));
  original.function(NodeId{0}).observe_startup(sim::Duration::from_millis(3100));
  original.function(NodeId{1}).observe_warm_response(sim::Duration::from_millis(900));
  original.observe_invoke_gap(NodeId{0}, NodeId{1}, sim::Duration::from_millis(750));

  auto restored = profile_table_from_json(to_json(original));
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const ProfileTable& table = restored.value();
  EXPECT_DOUBLE_EQ(table.alpha(), 0.25);
  ProfileFallbacks fb;
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{0})->cold_response(fb).millis(),
                   4200.0);
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{0})->startup(fb).millis(), 3100.0);
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{1})->warm_response(fb).millis(),
                   900.0);
  EXPECT_DOUBLE_EQ(table.invoke_gap(NodeId{0}, NodeId{1}, fb).millis(), 750.0);
  // Unseen metrics still fall back.
  EXPECT_EQ(table.invoke_gap(NodeId{5}, NodeId{6}, fb), fb.invoke_gap);
}

TEST(MetadataStore, PutGetAndDumpParse) {
  MetadataStore store;
  WorkflowMetadata metadata;
  metadata.model = learned_model();
  metadata.profiles.function(NodeId{0}).observe_startup(
      sim::Duration::from_millis(2800));
  store.put("checkout", metadata);
  EXPECT_TRUE(store.contains("checkout"));
  EXPECT_EQ(store.size(), 1u);

  auto loaded = store.get("checkout");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->model.node_count(), 4u);

  // Dump the whole store to text and reload it (restart persistence).
  auto reparsed = MetadataStore::parse(store.dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  auto reloaded = reparsed.value().get("checkout");
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(reloaded.value().has_value());
  ProfileFallbacks fb;
  EXPECT_DOUBLE_EQ(
      reloaded.value()->profiles.find_function(NodeId{0})->startup(fb).millis(),
      2800.0);
}

TEST(MetadataStore, MissingKeyYieldsEmptyOptional) {
  const MetadataStore store;
  auto result = store.get("ghost");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().has_value());
}

TEST(MetadataStore, CorruptDocumentsRejected) {
  EXPECT_FALSE(branch_model_from_json(common::JsonValue{42.0}).ok());
  EXPECT_FALSE(profile_table_from_json(common::JsonValue{"x"}).ok());
  // Wrong version.
  common::JsonObject doc;
  doc.set("version", common::JsonValue{99.0});
  EXPECT_FALSE(branch_model_from_json(common::JsonValue{std::move(doc)}).ok());
  EXPECT_FALSE(MetadataStore::parse("not json").ok());
  EXPECT_FALSE(MetadataStore::parse("[1,2]").ok());
}

TEST(MetadataStore, TruncatedDumpsRejected) {
  // A real dump cut off mid-document (disk full, interrupted write) must
  // surface as a parse error, never as a half-loaded store.
  MetadataStore store;
  WorkflowMetadata metadata;
  metadata.model = learned_model();
  store.put("checkout", metadata);
  const std::string full = store.dump();
  ASSERT_GT(full.size(), 8u);
  for (const std::size_t keep :
       {full.size() / 2, full.size() - 1, std::size_t{1}}) {
    auto result = MetadataStore::parse(full.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "accepted a dump truncated to " << keep
                              << " of " << full.size() << " bytes";
  }
  // Hand-written truncations: cut inside a key, after a ':', inside a
  // nested object.
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {"model": {"version")").ok());
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {"model":)").ok());
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {)").ok());
}

TEST(MetadataStore, DeeplyNestedDumpsEndInACleanError) {
  // 100,000 nested objects under one workflow key: the JSON reader's depth
  // cap must make this a parse error, not a stack overflow.
  std::string text = R"({"wf": )";
  for (int i = 0; i < 100'000; ++i) text += R"({"model": )";
  text += "null";
  text.append(100'000 + 1, '}');
  const auto result = MetadataStore::parse(text);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("nesting deeper than"),
            std::string::npos)
      << result.error().message;
}

TEST(MetadataStore, DuplicateKeysRejected) {
  // Duplicate workflow keys (or duplicate fields inside a document) mean
  // the dump was corrupted or hand-merged badly; last-wins would silently
  // drop learned state.
  EXPECT_FALSE(MetadataStore::parse(R"({"wf": {}, "wf": {}})").ok());
  EXPECT_FALSE(
      MetadataStore::parse(R"({"wf": {"model": {}, "model": {}}})").ok());
  auto result = MetadataStore::parse(R"({"a": 1, "a": 2})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("duplicate object key"),
            std::string::npos)
      << result.error().message;
}

TEST(MetadataStore, WrongTypeFieldsRejected) {
  using common::JsonArray;
  using common::JsonObject;
  using common::JsonValue;

  const JsonValue good_model = to_json(learned_model());
  {
    // 'nodes' as a number instead of an array.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{3.0});
    doc.set("roots", JsonValue{JsonArray{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // A node with a string id.
    JsonObject node;
    node.set("id", JsonValue{"zero"});
    node.set("select", JsonValue{0.0});
    node.set("request_count", JsonValue{1.0});
    node.set("children", JsonValue{JsonArray{}});
    JsonArray nodes;
    nodes.push_back(JsonValue{std::move(node)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{std::move(nodes)});
    doc.set("roots", JsonValue{JsonArray{}});
    auto result = branch_model_from_json(JsonValue{std::move(doc)});
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("malformed node fields"),
              std::string::npos)
        << result.error().message;
  }
  {
    // 'roots' as an object instead of an array of numbers.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{JsonArray{}});
    doc.set("roots", JsonValue{JsonObject{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // An edge whose probability is a boolean.
    JsonObject edge;
    edge.set("child", JsonValue{1.0});
    edge.set("probability", JsonValue{true});
    edge.set("count", JsonValue{1.0});
    JsonArray children;
    children.push_back(JsonValue{std::move(edge)});
    JsonObject node;
    node.set("id", JsonValue{0.0});
    node.set("select", JsonValue{0.0});
    node.set("request_count", JsonValue{1.0});
    node.set("children", JsonValue{std::move(children)});
    JsonArray nodes;
    nodes.push_back(JsonValue{std::move(node)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{std::move(nodes)});
    doc.set("roots", JsonValue{JsonArray{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // Profile table: alpha as a string, then alpha out of range.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("alpha", JsonValue{"0.25"});
    doc.set("functions", JsonValue{JsonArray{}});
    doc.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc)}).ok());
    JsonObject doc2;
    doc2.set("version", JsonValue{1.0});
    doc2.set("alpha", JsonValue{7.0});
    doc2.set("functions", JsonValue{JsonArray{}});
    doc2.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc2)}).ok());
  }
  {
    // Profile table: an EMA whose count is negative.
    JsonObject ema;
    ema.set("value", JsonValue{5.0});
    ema.set("count", JsonValue{-1.0});
    JsonObject fn;
    fn.set("node", JsonValue{0.0});
    fn.set("cold_response", JsonValue{ema});
    fn.set("startup", JsonValue{ema});
    fn.set("warm_response", JsonValue{std::move(ema)});
    JsonArray functions;
    functions.push_back(JsonValue{std::move(fn)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("alpha", JsonValue{0.25});
    doc.set("functions", JsonValue{std::move(functions)});
    doc.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // A store document whose 'model' section is the wrong shape fails at
    // get(), not at parse() (parse is lazy about section contents).
    auto parsed =
        MetadataStore::parse(R"({"wf": {"model": 42, "profiles": {}}})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_FALSE(parsed.value().get("wf").ok());
    // Good model, malformed profiles: still an error, not UB.
    JsonObject doc;
    doc.set("model", good_model);
    doc.set("profiles", JsonValue{"nope"});
    JsonObject top;
    top.set("wf", JsonValue{std::move(doc)});
    auto reparsed = MetadataStore::parse(JsonValue{std::move(top)}.dump());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_FALSE(reparsed.value().get("wf").ok());
  }
}

TEST(MetadataStore, NumbersOutsideTheirIntegerRangeRejected) {
  // Every id and count is cast to an unsigned integer, which is undefined
  // for a negative, fractional-overflowing or huge double: each must be
  // rejected before the cast.
  using common::JsonArray;
  using common::JsonObject;
  using common::JsonValue;

  // One model document; `bad` replaces the field it names.
  const auto model_doc = [](const std::string& bad, double value) {
    const auto field = [&](const char* name, double good) {
      return JsonValue{bad == name ? value : good};
    };
    JsonObject edge;
    edge.set("child", field("child", 1.0));
    edge.set("probability", JsonValue{1.0});
    edge.set("count", field("edge_count", 2.0));
    JsonArray children;
    children.push_back(JsonValue{std::move(edge)});
    JsonObject node;
    node.set("id", field("id", 0.0));
    node.set("select", field("select", 0.0));
    node.set("request_count", field("request_count", 2.0));
    node.set("children", JsonValue{std::move(children)});
    JsonArray nodes;
    nodes.push_back(JsonValue{std::move(node)});
    JsonArray roots;
    roots.push_back(field("root", 0.0));
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{std::move(nodes)});
    doc.set("roots", JsonValue{std::move(roots)});
    return JsonValue{std::move(doc)};
  };
  // One profile-table document, likewise.
  const auto profile_doc = [](const std::string& bad, double value) {
    const auto field = [&](const char* name, double good) {
      return JsonValue{bad == name ? value : good};
    };
    JsonObject ema;
    ema.set("value", JsonValue{5.0});
    ema.set("count", field("ema_count", 3.0));
    JsonObject fn;
    fn.set("node", field("node", 0.0));
    fn.set("cold_response", JsonValue{ema});
    fn.set("startup", JsonValue{ema});
    fn.set("warm_response", JsonValue{ema});
    JsonArray functions;
    functions.push_back(JsonValue{std::move(fn)});
    JsonObject gap;
    gap.set("parent", field("parent", 0.0));
    gap.set("child", field("gap_child", 1.0));
    gap.set("ema", JsonValue{std::move(ema)});
    JsonArray gaps;
    gaps.push_back(JsonValue{std::move(gap)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("alpha", JsonValue{0.25});
    doc.set("functions", JsonValue{std::move(functions)});
    doc.set("invoke_gaps", JsonValue{std::move(gaps)});
    return JsonValue{std::move(doc)};
  };

  ASSERT_TRUE(branch_model_from_json(model_doc("", 0.0)).ok());
  ASSERT_TRUE(profile_table_from_json(profile_doc("", 0.0)).ok());
  const double bad_values[] = {-1.0, 0.5, -1e300, 1e300,
                               18446744073709551616.0};  // 2^64
  for (const double value : bad_values) {
    for (const char* field :
         {"id", "select", "request_count", "child", "edge_count", "root"}) {
      EXPECT_FALSE(branch_model_from_json(model_doc(field, value)).ok())
          << field << " = " << value;
    }
    for (const char* field : {"ema_count", "node", "parent", "gap_child"}) {
      EXPECT_FALSE(profile_table_from_json(profile_doc(field, value)).ok())
          << field << " = " << value;
    }
  }
  // The largest double below 2^64 is still a valid id.
  const auto largest = branch_model_from_json(
      model_doc("child", 18446744073709549568.0));
  ASSERT_TRUE(largest.ok()) << largest.error().message;
  EXPECT_TRUE(largest.value().find(NodeId{0})->find_child(
                  NodeId{18446744073709549568ull}) != nullptr);
}

TEST(MetadataStore, ControlPlaneWarmRestart) {
  // Train a control plane, persist its state, then boot a *fresh* one from
  // the store: the first request after the restart must already benefit
  // from speculation (implicit chain, so an untrained plane would pay the
  // full cascading cold start).
  workflow::BuildOptions opts;
  opts.exec_time = sim::Duration::from_seconds(5);
  const auto dag = workflow::linear_chain(5, opts);

  MetadataStore store;
  XanaduOptions xo;
  xo.knowledge = ChainKnowledge::Implicit;
  {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.xanadu = xo;
    DispatchManager manager{options};
    const auto wf = manager.deploy(dag);
    for (int i = 0; i < 3; ++i) {
      manager.force_cold_start();
      (void)manager.invoke(wf);
    }
    ASSERT_TRUE(manager.xanadu_policy()->persist(wf, store, "chain"));
  }

  // Fresh platform + fresh policy: restore before the first request.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  options.xanadu = xo;
  DispatchManager manager{options};
  const auto wf = manager.deploy(dag);
  auto restored = manager.xanadu_policy()->restore(wf, dag, store, "chain");
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_TRUE(restored.value());

  const auto result = manager.invoke(wf);
  // Without restore this first request would have 5 cold starts and no
  // predicted path; with the persisted model it speculates immediately.
  EXPECT_EQ(result.speculation.predicted_nodes, 5u);
  EXPECT_LE(result.cold_starts, 1u);

  // Restoring an absent key reports "nothing restored".
  auto missing = manager.xanadu_policy()->restore(wf, dag, store, "ghost");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value());
}

/// A one-document store dump (key "chain") for a 4-node chain whose
/// `field` -- one of the five node-id fields: model node "id", edge
/// "child", "root", profile "node", invoke-gap "parent" and "gap_child" --
/// is `value`; every other id names a node of the chain.
std::string chain_dump_with(const std::string& field, double value) {
  using common::JsonArray;
  using common::JsonObject;
  using common::JsonValue;
  const auto id = [&](const char* name, double good) {
    return JsonValue{field == name ? value : good};
  };
  JsonObject edge;
  edge.set("child", id("child", 1.0));
  edge.set("probability", JsonValue{1.0});
  edge.set("count", JsonValue{2.0});
  JsonArray children;
  children.push_back(JsonValue{std::move(edge)});
  JsonObject node;
  node.set("id", id("id", 0.0));
  node.set("select", JsonValue{0.0});
  node.set("request_count", JsonValue{2.0});
  node.set("children", JsonValue{std::move(children)});
  JsonArray nodes;
  nodes.push_back(JsonValue{std::move(node)});
  JsonArray roots;
  roots.push_back(id("root", 0.0));
  JsonObject model;
  model.set("version", JsonValue{1.0});
  model.set("nodes", JsonValue{std::move(nodes)});
  model.set("roots", JsonValue{std::move(roots)});

  JsonObject ema;
  ema.set("value", JsonValue{5.0});
  ema.set("count", JsonValue{3.0});
  JsonObject fn;
  fn.set("node", id("node", 0.0));
  fn.set("cold_response", JsonValue{ema});
  fn.set("startup", JsonValue{ema});
  fn.set("warm_response", JsonValue{ema});
  JsonArray functions;
  functions.push_back(JsonValue{std::move(fn)});
  JsonObject gap;
  gap.set("parent", id("parent", 0.0));
  gap.set("child", id("gap_child", 1.0));
  gap.set("ema", JsonValue{std::move(ema)});
  JsonArray gaps;
  gaps.push_back(JsonValue{std::move(gap)});
  JsonObject profiles;
  profiles.set("version", JsonValue{1.0});
  profiles.set("alpha", JsonValue{0.3});
  profiles.set("functions", JsonValue{std::move(functions)});
  profiles.set("invoke_gaps", JsonValue{std::move(gaps)});

  JsonObject doc;
  doc.set("model", JsonValue{std::move(model)});
  doc.set("profiles", JsonValue{std::move(profiles)});
  JsonObject top;
  top.set("chain", JsonValue{std::move(doc)});
  return JsonValue{std::move(top)}.dump();
}

TEST(MetadataStore, HugeNodeIdsEndInACleanError) {
  // Node ids key per-workflow tables, so one read from a dump must never
  // size a table: each id field set to 2^52 - 1 must end in a clean Error,
  // from get() or from restore(), and nothing may throw.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  DispatchManager manager{options};
  const auto wf = manager.deploy(workflow::linear_chain(4));
  const workflow::WorkflowDag& dag = manager.engine().dag(wf);
  XanaduPolicy& policy = *manager.xanadu_policy();

  // Parse, get and restore; the first error met, or "" when all succeed.
  const auto outcome = [&](const std::string& field, double value) {
    const auto store = MetadataStore::parse(chain_dump_with(field, value));
    if (!store.ok()) return store.error().message;
    const auto loaded = store.value().get("chain");
    if (!loaded.ok()) return loaded.error().message;
    const auto restored = policy.restore(wf, dag, store.value(), "chain");
    return restored.ok() ? std::string{} : restored.error().message;
  };
  ASSERT_EQ(outcome("", 0.0), "");

  constexpr double kHuge = 4503599627370495.0;  // 2^52 - 1
  for (const char* field :
       {"id", "child", "root", "node", "parent", "gap_child"}) {
    std::string error;
    EXPECT_NO_THROW(error = outcome(field, kHuge)) << field;
    EXPECT_NE(error, "") << field;
  }
}

}  // namespace
}  // namespace xanadu::core
