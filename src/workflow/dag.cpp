#include "workflow/dag.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace xanadu::workflow {

NodeId WorkflowDag::add_node(FunctionSpec fn, DispatchMode dispatch) {
  fn.validate();
  if (nodes_.size() >= kMaxNodes) {
    throw std::invalid_argument{"WorkflowDag::add_node: more than 65536 nodes"};
  }
  const NodeId id{nodes_.size()};
  nodes_.push_back(Node{id, std::move(fn), dispatch, {}, {}});
  return id;
}

void WorkflowDag::add_edge(NodeId parent, NodeId child, double probability,
                           sim::Duration delay) {
  require_valid_id(parent);
  require_valid_id(child);
  if (parent == child) {
    throw std::invalid_argument{"WorkflowDag::add_edge: self edge on '" +
                                nodes_[parent.value()].fn.name + "'"};
  }
  if (probability <= 0.0) {
    throw std::invalid_argument{"WorkflowDag::add_edge: probability must be > 0"};
  }
  Node& p = nodes_[parent.value()];
  for (const Edge& e : p.children) {
    if (e.child == child) {
      throw std::invalid_argument{"WorkflowDag::add_edge: duplicate edge '" +
                                  p.fn.name + "' -> '" +
                                  nodes_[child.value()].fn.name + "'"};
    }
  }
  if (delay < sim::Duration::zero()) {
    throw std::invalid_argument{"WorkflowDag::add_edge: negative delay"};
  }
  p.children.push_back(Edge{child, probability, delay});
  nodes_[child.value()].parents.push_back(parent);
}

const Node& WorkflowDag::node(NodeId id) const {
  require_valid_id(id);
  return nodes_[id.value()];
}

void WorkflowDag::require_valid_id(NodeId id) const {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::invalid_argument{"WorkflowDag: node id out of range"};
  }
}

std::vector<NodeId> WorkflowDag::roots() const {
  std::vector<NodeId> result;
  for (const Node& n : nodes_) {
    if (n.parents.empty()) result.push_back(n.id);
  }
  return result;
}

std::vector<NodeId> WorkflowDag::sinks() const {
  std::vector<NodeId> result;
  for (const Node& n : nodes_) {
    if (n.children.empty()) result.push_back(n.id);
  }
  return result;
}

std::vector<NodeId> WorkflowDag::topological_order() const {
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    for (const Edge& e : n.children) ++in_degree[e.child.value()];
  }
  std::deque<NodeId> ready;
  for (const Node& n : nodes_) {
    if (in_degree[n.id.value()] == 0) ready.push_back(n.id);
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const Edge& e : nodes_[id.value()].children) {
      if (--in_degree[e.child.value()] == 0) ready.push_back(e.child);
    }
  }
  if (order.size() != nodes_.size()) {
    throw std::invalid_argument{"WorkflowDag: graph contains a cycle"};
  }
  return order;
}

std::size_t WorkflowDag::depth() const {
  if (nodes_.empty()) return 0;
  std::vector<std::size_t> longest(nodes_.size(), 1);
  for (const NodeId id : topological_order()) {
    const Node& n = nodes_[id.value()];
    for (const Edge& e : n.children) {
      longest[e.child.value()] =
          std::max(longest[e.child.value()], longest[id.value()] + 1);
    }
  }
  return *std::max_element(longest.begin(), longest.end());
}

std::size_t WorkflowDag::conditional_points() const {
  std::size_t count = 0;
  for (const Node& n : nodes_) {
    if (n.dispatch == DispatchMode::Xor && n.children.size() > 1) ++count;
  }
  return count;
}

NodeId WorkflowDag::find_by_name(const std::string& fn_name) const {
  for (const Node& n : nodes_) {
    if (n.fn.name == fn_name) return n.id;
  }
  return NodeId{};
}

void WorkflowDag::validate() const {
  if (nodes_.empty()) {
    throw std::invalid_argument{"WorkflowDag: empty workflow"};
  }
  if (roots().empty()) {
    throw std::invalid_argument{"WorkflowDag: no root node (cycle?)"};
  }
  (void)topological_order();  // Throws on cycles.
  std::unordered_set<std::string> names;
  for (const Node& n : nodes_) {
    if (!names.insert(n.fn.name).second) {
      throw std::invalid_argument{"WorkflowDag: duplicate function name '" +
                                  n.fn.name + "'"};
    }
    // The trace CSV writes names raw: ',' would split a row's fields, ';'
    // the invoked_by list, CR or LF the row itself.
    if (n.fn.name.find_first_of(",;\r\n") != std::string::npos) {
      throw std::invalid_argument{"WorkflowDag: function name '" + n.fn.name +
                                  "' contains ',', ';', CR or LF"};
    }
    if (n.dispatch == DispatchMode::Xor && n.children.empty()) {
      // An Xor node with no children is just a sink; allowed but the
      // dispatch mode is meaningless.  An Xor node with children needs
      // positive total probability (guaranteed by add_edge).
      continue;
    }
  }
}

std::string to_string(SandboxKind kind) {
  switch (kind) {
    case SandboxKind::Container: return "container";
    case SandboxKind::Process: return "process";
    case SandboxKind::Isolate: return "isolate";
  }
  throw std::logic_error{"to_string(SandboxKind): unknown kind"};
}

SandboxKind sandbox_kind_from_string(const std::string& name) {
  if (name == "container") return SandboxKind::Container;
  if (name == "process") return SandboxKind::Process;
  if (name == "isolate") return SandboxKind::Isolate;
  throw std::invalid_argument{"unknown sandbox kind '" + name + "'"};
}

}  // namespace xanadu::workflow
