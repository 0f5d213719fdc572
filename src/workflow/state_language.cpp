#include "workflow/state_language.hpp"

#include <map>
#include <optional>
#include <vector>

namespace xanadu::workflow {

namespace {

using common::Error;
using common::JsonObject;
using common::JsonValue;
using common::Result;

struct FunctionBlock {
  std::string name;
  FunctionSpec spec;
  std::vector<std::string> wait_for;
  std::optional<std::string> conditional;  // name of the conditional it feeds
  std::string branch;                      // enclosing branch name ("" = top)
  /// Extension: signalling delay applied to every in-edge of this function.
  sim::Duration trigger_delay = sim::Duration::zero();
};

struct ConditionalBlock {
  std::string name;
  std::vector<std::string> wait_for;
  double success_probability = 0.5;
  std::string success_branch;
  std::string fail_branch;
  std::string condition_text;  // retained verbatim for diagnostics
};

struct Document {
  std::vector<FunctionBlock> functions;
  std::vector<ConditionalBlock> conditionals;
  std::map<std::string, std::vector<std::string>> branch_members;
};

/// Cap on every millisecond field.  1e12 ms is about 31.7 years: beyond any
/// paper workload, and far below where Duration::from_millis overflows its
/// int64 microseconds (about 9.2e15 ms), even after being added to a run's
/// clock.
constexpr double kMaxMillis = 1e12;

/// Reads field `field` of function `name` as a duration in [0, kMaxMillis] ms.
Result<sim::Duration> parse_millis(const std::string& name, const char* field,
                                   const JsonValue& value) {
  if (!value.is_number() ||
      !(value.as_number() >= 0.0 && value.as_number() <= kMaxMillis)) {
    return Error{"function '" + name + "': '" + field +
                 "' must be a number of milliseconds in [0, 1e12]"};
  }
  return sim::Duration::from_millis(value.as_number());
}

Result<FunctionSpec> parse_function_spec(const std::string& name,
                                         const JsonObject& block) {
  FunctionSpec spec;
  spec.name = name;
  if (const JsonValue* memory = block.find("memory")) {
    if (!memory->is_number() || memory->as_number() <= 0) {
      return Error{"function '" + name + "': 'memory' must be a positive number"};
    }
    spec.memory_mb = memory->as_number();
  }
  if (const JsonValue* jitter = block.find("exec_jitter_ms")) {
    auto ms = parse_millis(name, "exec_jitter_ms", *jitter);
    if (!ms.ok()) return ms.error();
    spec.exec_jitter = ms.value();
  }
  // 'trigger_delay_ms' (parsed in collect_block) is an extension applied to
  // the function's in-edges; see FunctionBlock::trigger_delay.
  if (const JsonValue* runtime = block.find("runtime")) {
    if (!runtime->is_string()) {
      return Error{"function '" + name + "': 'runtime' must be a string"};
    }
    try {
      spec.sandbox = sandbox_kind_from_string(runtime->as_string());
    } catch (const std::invalid_argument& e) {
      return Error{"function '" + name + "': " + e.what()};
    }
  }
  if (const JsonValue* exec_ms = block.find("exec_ms")) {
    auto ms = parse_millis(name, "exec_ms", *exec_ms);
    if (!ms.ok()) return ms.error();
    spec.exec_time = ms.value();
  }
  return spec;
}

Result<std::vector<std::string>> parse_wait_for(const std::string& name,
                                                const JsonObject& block) {
  std::vector<std::string> deps;
  if (const JsonValue* wait_for = block.find("wait_for")) {
    if (!wait_for->is_array()) {
      return Error{"block '" + name + "': 'wait_for' must be an array"};
    }
    for (const JsonValue& dep : wait_for->as_array()) {
      if (!dep.is_string()) {
        return Error{"block '" + name + "': 'wait_for' entries must be strings"};
      }
      deps.push_back(dep.as_string());
    }
  }
  return deps;
}

/// Walks one named block; recurses into branch blocks.
Result<bool> collect_block(Document& doc, const std::string& name,
                           const JsonValue& value, const std::string& branch) {
  if (!value.is_object()) {
    return Error{"block '" + name + "' must be a JSON object"};
  }
  const JsonObject& block = value.as_object();
  const JsonValue* type = block.find("type");
  if (type == nullptr || !type->is_string()) {
    return Error{"block '" + name + "' is missing a string 'type'"};
  }
  const std::string& kind = type->as_string();

  if (kind == "function") {
    auto spec = parse_function_spec(name, block);
    if (!spec.ok()) return spec.error();
    auto deps = parse_wait_for(name, block);
    if (!deps.ok()) return deps.error();
    FunctionBlock fn;
    fn.name = name;
    fn.spec = std::move(spec).value();
    fn.wait_for = std::move(deps).value();
    fn.branch = branch;
    if (const JsonValue* conditional = block.find("conditional")) {
      if (!conditional->is_string()) {
        return Error{"function '" + name + "': 'conditional' must be a string"};
      }
      fn.conditional = conditional->as_string();
    }
    if (const JsonValue* delay = block.find("trigger_delay_ms")) {
      auto ms = parse_millis(name, "trigger_delay_ms", *delay);
      if (!ms.ok()) return ms.error();
      fn.trigger_delay = ms.value();
    }
    doc.branch_members[branch].push_back(name);
    doc.functions.push_back(std::move(fn));
    return true;
  }

  if (kind == "conditional") {
    ConditionalBlock cond;
    cond.name = name;
    auto deps = parse_wait_for(name, block);
    if (!deps.ok()) return deps.error();
    cond.wait_for = std::move(deps).value();
    if (cond.wait_for.size() != 1) {
      return Error{"conditional '" + name + "' must wait_for exactly one function"};
    }
    const JsonValue* success = block.find("success");
    const JsonValue* fail = block.find("fail");
    if (success == nullptr || !success->is_string() || fail == nullptr ||
        !fail->is_string()) {
      return Error{"conditional '" + name + "' needs string 'success' and 'fail'"};
    }
    cond.success_branch = success->as_string();
    cond.fail_branch = fail->as_string();
    if (const JsonValue* p = block.find("success_probability")) {
      if (!p->is_number() || p->as_number() <= 0.0 || p->as_number() >= 1.0) {
        return Error{"conditional '" + name +
                     "': 'success_probability' must be in (0, 1)"};
      }
      cond.success_probability = p->as_number();
    }
    if (const JsonValue* condition = block.find("condition")) {
      cond.condition_text = condition->dump();
    }
    doc.conditionals.push_back(std::move(cond));
    return true;
  }

  if (kind == "branch") {
    for (const std::string& key : block.keys()) {
      if (key == "type") continue;
      auto result = collect_block(doc, key, block.at(key), name);
      if (!result.ok()) return result.error();
    }
    return true;
  }

  return Error{"block '" + name + "' has unknown type '" + kind + "'"};
}

/// Builds the DAG of a collected document.  Structural errors the document
/// can name come back as Errors; WorkflowDag's own checks throw.
Result<WorkflowDag> build_dag(const Document& doc,
                              const std::string& workflow_name) {
  WorkflowDag dag{workflow_name};
  std::map<std::string, NodeId> ids;

  // Pass 1: decide dispatch modes.  A function guarded by a conditional
  // becomes an XOR-cast node; everything else multicasts to its children.
  std::map<std::string, const ConditionalBlock*> conditional_of_parent;
  for (const ConditionalBlock& cond : doc.conditionals) {
    const std::string& parent = cond.wait_for.front();
    if (conditional_of_parent.contains(parent)) {
      return Error{"function '" + parent + "' guards more than one conditional"};
    }
    conditional_of_parent[parent] = &cond;
  }
  for (const FunctionBlock& fn : doc.functions) {
    const DispatchMode mode = conditional_of_parent.contains(fn.name)
                                  ? DispatchMode::Xor
                                  : DispatchMode::All;
    ids[fn.name] = dag.add_node(fn.spec, mode);
  }

  // Pass 2: plain wait_for edges.  Entries of a branch (functions inside a
  // branch with an empty wait_for) are connected later via the conditional.
  for (const FunctionBlock& fn : doc.functions) {
    for (const std::string& dep : fn.wait_for) {
      auto it = ids.find(dep);
      if (it == ids.end()) {
        return Error{"function '" + fn.name + "' waits for unknown function '" +
                     dep + "'"};
      }
      dag.add_edge(it->second, ids[fn.name], 1.0, fn.trigger_delay);
    }
  }

  // Pass 3: conditional edges from the guarded parent to branch entries.
  for (const ConditionalBlock& cond : doc.conditionals) {
    const std::string& parent_name = cond.wait_for.front();
    auto parent_it = ids.find(parent_name);
    if (parent_it == ids.end()) {
      return Error{"conditional '" + cond.name + "' waits for unknown function '" +
                   parent_name + "'"};
    }
    for (const bool success : {true, false}) {
      const std::string& branch_name =
          success ? cond.success_branch : cond.fail_branch;
      auto members = doc.branch_members.find(branch_name);
      if (members == doc.branch_members.end() || members->second.empty()) {
        return Error{"conditional '" + cond.name + "' points to unknown or empty "
                     "branch '" + branch_name + "'"};
      }
      const double mass = success ? cond.success_probability
                                  : 1.0 - cond.success_probability;
      // Branch entries: members of the branch with no wait_for of their own.
      std::vector<NodeId> entries;
      for (const std::string& member : members->second) {
        for (const FunctionBlock& fn : doc.functions) {
          if (fn.name == member && fn.wait_for.empty()) {
            entries.push_back(ids[member]);
          }
        }
      }
      if (entries.empty()) {
        return Error{"branch '" + branch_name + "' has no entry function "
                     "(every member has a wait_for)"};
      }
      const double per_entry = mass / static_cast<double>(entries.size());
      for (const NodeId entry : entries) {
        sim::Duration delay = sim::Duration::zero();
        for (const FunctionBlock& fn : doc.functions) {
          if (ids.at(fn.name) == entry) delay = fn.trigger_delay;
        }
        dag.add_edge(parent_it->second, entry, per_entry, delay);
      }
    }
  }

  dag.validate();
  return dag;
}

}  // namespace

common::Result<WorkflowDag> parse_state_language(const std::string& text,
                                                 const std::string& workflow_name) {
  auto json = common::parse_json(text);
  if (!json.ok()) return json.error();
  if (!json.value().is_object()) {
    return Error{"state-language document must be a JSON object"};
  }

  Document doc;
  const JsonObject& top = json.value().as_object();
  for (const std::string& key : top.keys()) {
    auto result = collect_block(doc, key, top.at(key), "");
    if (!result.ok()) return result.error();
  }
  if (doc.functions.empty()) {
    return Error{"state-language document defines no functions"};
  }

  // WorkflowDag enforces the graph rules (no self or duplicate edges, no
  // cycles, unique CSV-safe names) by throwing; they are document errors.
  try {
    return build_dag(doc, workflow_name);
  } catch (const std::invalid_argument& e) {
    return Error{std::string{"invalid workflow: "} + e.what()};
  }
}

namespace {

using common::JsonArray;
using common::JsonObject;
using common::JsonValue;

/// Serialises one node's function block (without wait_for).
JsonObject function_block(const Node& node) {
  JsonObject block;
  block.set("type", JsonValue{"function"});
  block.set("memory", JsonValue{node.fn.memory_mb});
  block.set("runtime", JsonValue{to_string(node.fn.sandbox)});
  block.set("exec_ms", JsonValue{node.fn.exec_time.millis()});
  if (node.fn.exec_jitter > sim::Duration::zero()) {
    block.set("exec_jitter_ms", JsonValue{node.fn.exec_jitter.millis()});
  }
  return block;
}

}  // namespace

common::Result<std::string> to_state_language(const WorkflowDag& dag) {
  using common::Error;
  using common::JsonArray;
  using common::JsonObject;
  using common::JsonValue;
  try {
    dag.validate();
  } catch (const std::invalid_argument& e) {
    return Error{std::string{"invalid workflow: "} + e.what()};
  }

  // Expressibility checks and branch-member classification.  A node guarded
  // by an XOR conditional lives inside a branch block and must have that
  // XOR parent as its only parent (the language gives branch entries an
  // empty wait_for).
  struct Guard {
    NodeId parent;
    bool success = false;
    double probability = 0.0;
  };
  std::map<std::uint64_t, Guard> guarded;  // keyed by child node id
  for (const Node& node : dag.nodes()) {
    if (node.dispatch != DispatchMode::Xor || node.children.size() <= 1) {
      continue;
    }
    if (node.children.size() != 2) {
      return Error{"workflow not expressible: conditional '" + node.fn.name +
                   "' has " + std::to_string(node.children.size()) +
                   " branches; the state language supports success/fail"};
    }
    double total = 0.0;
    for (const Edge& e : node.children) total += e.probability;
    for (std::size_t i = 0; i < 2; ++i) {
      const Edge& e = node.children[i];
      if (dag.node(e.child).parents.size() != 1) {
        return Error{"workflow not expressible: branch entry '" +
                     dag.node(e.child).fn.name + "' has multiple parents"};
      }
      guarded[e.child.value()] =
          Guard{node.id, /*success=*/i == 0, e.probability / total};
    }
  }

  // Per-node in-edge delays (the 'trigger_delay_ms' extension expresses one
  // delay per function, so mixed in-edge delays are inexpressible).
  std::map<std::uint64_t, sim::Duration> in_delay;
  for (const Node& node : dag.nodes()) {
    for (const Edge& e : node.children) {
      auto it = in_delay.find(e.child.value());
      if (it == in_delay.end()) {
        in_delay.emplace(e.child.value(), e.delay);
      } else if (it->second != e.delay) {
        return Error{"workflow not expressible: '" +
                     dag.node(e.child).fn.name +
                     "' has in-edges with different delays"};
      }
    }
  }

  JsonObject top;
  for (const NodeId id : dag.topological_order()) {
    const Node& node = dag.node(id);
    const bool is_guarded = guarded.contains(id.value());

    JsonObject block = function_block(node);
    if (auto it = in_delay.find(id.value());
        it != in_delay.end() && it->second > sim::Duration::zero()) {
      block.set("trigger_delay_ms", JsonValue{it->second.millis()});
    }
    JsonArray wait_for;
    if (!is_guarded) {
      for (const NodeId parent : node.parents) {
        wait_for.push_back(JsonValue{dag.node(parent).fn.name});
      }
    }
    block.set("wait_for", JsonValue{std::move(wait_for)});

    const bool is_conditional =
        node.dispatch == DispatchMode::Xor && node.children.size() == 2;
    const std::string cond_name = node.fn.name + "__cond";
    if (is_conditional) {
      block.set("conditional", JsonValue{cond_name});
    }

    if (is_guarded) {
      // Wrap in a one-function branch block.
      const Guard& guard = guarded.at(id.value());
      JsonObject branch;
      branch.set("type", JsonValue{"branch"});
      branch.set(node.fn.name, JsonValue{std::move(block)});
      const std::string branch_name = dag.node(guard.parent).fn.name +
                                      (guard.success ? "__success" : "__fail");
      top.set(branch_name, JsonValue{std::move(branch)});
    } else {
      top.set(node.fn.name, JsonValue{std::move(block)});
    }

    if (is_conditional) {
      JsonObject cond;
      cond.set("type", JsonValue{"conditional"});
      JsonArray cond_wait;
      cond_wait.push_back(JsonValue{node.fn.name});
      cond.set("wait_for", JsonValue{std::move(cond_wait)});
      cond.set("success_probability",
               JsonValue{guarded.at(node.children[0].child.value()).probability});
      cond.set("success", JsonValue{node.fn.name + "__success"});
      cond.set("fail", JsonValue{node.fn.name + "__fail"});
      top.set(cond_name, JsonValue{std::move(cond)});
    }
  }
  return JsonValue{std::move(top)}.dump();
}

}  // namespace xanadu::workflow
