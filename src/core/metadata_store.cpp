#include "core/metadata_store.hpp"

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "workflow/dag.hpp"

namespace xanadu::core {

using common::Error;
using common::JsonArray;
using common::JsonObject;
using common::JsonValue;
using common::Result;

namespace {

constexpr double kFormatVersion = 1.0;

/// `json` as an id or a count: a non-negative integer below 2^64.  Anything
/// else -- absent, not a number, negative, fractional, too large -- is
/// nullopt, so no out-of-range double ever reaches an integer cast.
std::optional<std::uint64_t> as_uint(const JsonValue* json) {
  if (json == nullptr || !json->is_number()) return std::nullopt;
  const double value = json->as_number();
  // 2^64 is the first double past the range; NaN fails both comparisons.
  if (!(value >= 0.0 && value < 18446744073709551616.0) ||
      value != std::floor(value)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

/// True when `id` lies past every workflow's nodes.  The node ids that key
/// a table -- a model node's, a profile's, an invoke gap's parent -- are
/// refused here, before the table grows to hold them; the others (children,
/// roots, gap children) are checked against the workflow on restore.
bool past_any_workflow(std::uint64_t id) {
  return id >= workflow::WorkflowDag::kMaxNodes;
}

JsonValue ema_to_json(const common::Ema& ema) {
  JsonObject obj;
  obj.set("value", JsonValue{ema.value_or(0.0)});
  obj.set("count", JsonValue{static_cast<double>(ema.count())});
  return JsonValue{std::move(obj)};
}

Result<std::pair<double, std::size_t>> ema_from_json(const JsonValue& json,
                                                     const char* what) {
  if (!json.is_object()) {
    return Error{std::string{what} + ": expected an object"};
  }
  const JsonObject& obj = json.as_object();
  const JsonValue* value = obj.find("value");
  const std::optional<std::uint64_t> count = as_uint(obj.find("count"));
  if (value == nullptr || !value->is_number() || !count) {
    return Error{std::string{what} + ": malformed EMA state"};
  }
  return std::pair{value->as_number(), static_cast<std::size_t>(*count)};
}

}  // namespace

JsonValue to_json(const BranchModel& model) {
  JsonObject doc;
  doc.set("version", JsonValue{kFormatVersion});

  JsonArray roots;
  for (const NodeId root : model.roots()) {
    roots.push_back(JsonValue{static_cast<double>(root.value())});
  }
  doc.set("roots", JsonValue{std::move(roots)});

  JsonArray nodes;
  for (const NodeId id : model.known_nodes()) {
    const ModelNode* node = model.find(id);
    JsonObject n;
    n.set("id", JsonValue{static_cast<double>(id.value())});
    n.set("select", JsonValue{static_cast<double>(static_cast<int>(node->select))});
    n.set("request_count",
          JsonValue{static_cast<double>(node->request_count)});
    JsonArray children;
    for (const LearnedEdge& e : node->children) {
      JsonObject edge;
      edge.set("child", JsonValue{static_cast<double>(e.child.value())});
      edge.set("probability", JsonValue{e.probability});
      edge.set("count", JsonValue{static_cast<double>(e.count)});
      children.push_back(JsonValue{std::move(edge)});
    }
    n.set("children", JsonValue{std::move(children)});
    nodes.push_back(JsonValue{std::move(n)});
  }
  doc.set("nodes", JsonValue{std::move(nodes)});
  return JsonValue{std::move(doc)};
}

Result<BranchModel> branch_model_from_json(const JsonValue& json) {
  if (!json.is_object()) return Error{"branch model: expected an object"};
  const JsonObject& doc = json.as_object();
  const JsonValue* version = doc.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kFormatVersion) {
    return Error{"branch model: missing or unsupported format version"};
  }
  BranchModel model;
  const JsonValue* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return Error{"branch model: missing 'nodes' array"};
  }
  for (const JsonValue& entry : nodes->as_array()) {
    if (!entry.is_object()) return Error{"branch model: malformed node"};
    const JsonObject& n = entry.as_object();
    const std::optional<std::uint64_t> id = as_uint(n.find("id"));
    const JsonValue* select = n.find("select");
    const std::optional<std::uint64_t> request_count =
        as_uint(n.find("request_count"));
    const JsonValue* children = n.find("children");
    if (!id || select == nullptr || !select->is_number() || !request_count ||
        children == nullptr || !children->is_array()) {
      return Error{"branch model: malformed node fields"};
    }
    if (past_any_workflow(*id)) {
      return Error{"branch model: node id past any workflow's nodes"};
    }
    const std::optional<std::uint64_t> select_value = as_uint(select);
    if (!select_value ||
        *select_value > static_cast<std::uint64_t>(SelectMode::Auto)) {
      return Error{"branch model: unknown select mode"};
    }
    ModelNode node;
    node.id = NodeId{*id};
    node.select = static_cast<SelectMode>(*select_value);
    node.request_count = static_cast<std::size_t>(*request_count);
    for (const JsonValue& edge_value : children->as_array()) {
      if (!edge_value.is_object()) return Error{"branch model: malformed edge"};
      const JsonObject& edge = edge_value.as_object();
      const std::optional<std::uint64_t> child = as_uint(edge.find("child"));
      const JsonValue* probability = edge.find("probability");
      const std::optional<std::uint64_t> count = as_uint(edge.find("count"));
      if (!child || probability == nullptr || !probability->is_number() ||
          !count) {
        return Error{"branch model: malformed edge fields"};
      }
      node.children.push_back(LearnedEdge{NodeId{*child},
                                          probability->as_number(),
                                          static_cast<std::size_t>(*count)});
    }
    model.restore_node(std::move(node));
  }
  const JsonValue* roots = doc.find("roots");
  if (roots == nullptr || !roots->is_array()) {
    return Error{"branch model: missing 'roots' array"};
  }
  for (const JsonValue& root : roots->as_array()) {
    const std::optional<std::uint64_t> id = as_uint(&root);
    if (!id) return Error{"branch model: malformed root"};
    model.restore_root(NodeId{*id});
  }
  return model;
}

JsonValue to_json(const ProfileTable& profiles) {
  JsonObject doc;
  doc.set("version", JsonValue{kFormatVersion});
  doc.set("alpha", JsonValue{profiles.alpha()});

  JsonArray functions;
  profiles.for_each_function([&](NodeId node, const FunctionProfile& profile) {
    JsonObject fn;
    fn.set("node", JsonValue{static_cast<double>(node.value())});
    fn.set("cold_response", ema_to_json(profile.cold_response_ema()));
    fn.set("startup", ema_to_json(profile.startup_ema()));
    fn.set("warm_response", ema_to_json(profile.warm_response_ema()));
    functions.push_back(JsonValue{std::move(fn)});
  });
  doc.set("functions", JsonValue{std::move(functions)});

  JsonArray gaps;
  profiles.for_each_invoke_gap(
      [&](NodeId parent, NodeId child, const common::Ema& ema) {
        JsonObject gap;
        gap.set("parent", JsonValue{static_cast<double>(parent.value())});
        gap.set("child", JsonValue{static_cast<double>(child.value())});
        gap.set("ema", ema_to_json(ema));
        gaps.push_back(JsonValue{std::move(gap)});
      });
  doc.set("invoke_gaps", JsonValue{std::move(gaps)});
  return JsonValue{std::move(doc)};
}

Result<ProfileTable> profile_table_from_json(const JsonValue& json) {
  if (!json.is_object()) return Error{"profile table: expected an object"};
  const JsonObject& doc = json.as_object();
  const JsonValue* version = doc.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kFormatVersion) {
    return Error{"profile table: missing or unsupported format version"};
  }
  const JsonValue* alpha = doc.find("alpha");
  if (alpha == nullptr || !alpha->is_number() || alpha->as_number() <= 0.0 ||
      alpha->as_number() > 1.0) {
    return Error{"profile table: malformed alpha"};
  }
  ProfileTable profiles{alpha->as_number()};

  const JsonValue* functions = doc.find("functions");
  if (functions == nullptr || !functions->is_array()) {
    return Error{"profile table: missing 'functions' array"};
  }
  for (const JsonValue& entry : functions->as_array()) {
    if (!entry.is_object()) return Error{"profile table: malformed function"};
    const JsonObject& fn = entry.as_object();
    const std::optional<std::uint64_t> node = as_uint(fn.find("node"));
    if (!node) return Error{"profile table: malformed function node id"};
    if (past_any_workflow(*node)) {
      return Error{"profile table: function node id past any workflow's nodes"};
    }
    FunctionProfile& profile = profiles.function(NodeId{*node});
    for (const auto& [field, ema] :
         {std::pair{"cold_response", &profile.cold_response_ema()},
          std::pair{"startup", &profile.startup_ema()},
          std::pair{"warm_response", &profile.warm_response_ema()}}) {
      const JsonValue* value = fn.find(field);
      if (value == nullptr) return Error{"profile table: missing EMA field"};
      auto state = ema_from_json(*value, field);
      if (!state.ok()) return state.error();
      ema->restore(state.value().first, state.value().second);
    }
  }

  const JsonValue* gaps = doc.find("invoke_gaps");
  if (gaps == nullptr || !gaps->is_array()) {
    return Error{"profile table: missing 'invoke_gaps' array"};
  }
  for (const JsonValue& entry : gaps->as_array()) {
    if (!entry.is_object()) return Error{"profile table: malformed gap"};
    const JsonObject& gap = entry.as_object();
    const std::optional<std::uint64_t> parent = as_uint(gap.find("parent"));
    const std::optional<std::uint64_t> child = as_uint(gap.find("child"));
    const JsonValue* ema = gap.find("ema");
    if (!parent || !child || ema == nullptr) {
      return Error{"profile table: malformed gap fields"};
    }
    if (past_any_workflow(*parent)) {
      return Error{"profile table: gap parent past any workflow's nodes"};
    }
    auto state = ema_from_json(*ema, "invoke_gap");
    if (!state.ok()) return state.error();
    profiles.restore_invoke_gap(NodeId{*parent}, NodeId{*child},
                                state.value().first, state.value().second);
  }
  return profiles;
}

void MetadataStore::put(const std::string& key, const WorkflowMetadata& metadata) {
  JsonObject doc;
  doc.set("model", to_json(metadata.model));
  doc.set("profiles", to_json(metadata.profiles));
  documents_.insert_or_assign(key, JsonValue{std::move(doc)});
}

common::Result<std::optional<WorkflowMetadata>> MetadataStore::get(
    const std::string& key) const {
  auto it = documents_.find(key);
  if (it == documents_.end()) {
    return std::optional<WorkflowMetadata>{};
  }
  if (!it->second.is_object()) {
    return Error{"metadata document '" + key + "' is not an object"};
  }
  const JsonObject& doc = it->second.as_object();
  const JsonValue* model_json = doc.find("model");
  const JsonValue* profiles_json = doc.find("profiles");
  if (model_json == nullptr || profiles_json == nullptr) {
    return Error{"metadata document '" + key + "' is missing sections"};
  }
  auto model = branch_model_from_json(*model_json);
  if (!model.ok()) return model.error();
  auto profiles = profile_table_from_json(*profiles_json);
  if (!profiles.ok()) return profiles.error();
  WorkflowMetadata metadata;
  metadata.model = std::move(model).value();
  metadata.profiles = std::move(profiles).value();
  return std::optional<WorkflowMetadata>{std::move(metadata)};
}

bool MetadataStore::contains(const std::string& key) const {
  return documents_.contains(key);
}

std::string MetadataStore::dump() const {
  JsonObject top;
  for (const auto& [key, doc] : documents_) top.set(key, doc);
  return JsonValue{std::move(top)}.dump();
}

common::Result<MetadataStore> MetadataStore::parse(const std::string& text) {
  auto json = common::parse_json(text);
  if (!json.ok()) return json.error();
  if (!json.value().is_object()) {
    return Error{"metadata store dump must be a JSON object"};
  }
  MetadataStore store;
  const JsonObject& top = json.value().as_object();
  for (const std::string& key : top.keys()) {
    store.documents_.emplace(key, top.at(key));
  }
  return store;
}

}  // namespace xanadu::core
