#pragma once

// Workflow DAG model.
//
// A workflow is a directed acyclic graph of function nodes supporting the
// inter-function relationships of paper Figure 2:
//   1:1   -- a node with a single child edge,
//   1:m   -- a node with DispatchMode::All and several children (multicast),
//   XOR   -- a node with DispatchMode::Xor: exactly one child is triggered,
//            chosen according to edge probabilities,
//   m:1   -- a node with several parents (it acts as a synchronisation
//            barrier and runs when all executing parents have completed),
//   m:n   -- any combination of the above.
//
// Edge probabilities model the workflow's *true* runtime branching behaviour;
// Xanadu's control plane never reads them directly (it learns them from
// observations), but the simulation engine samples them to decide which XOR
// branch a request actually takes.

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "sim/time.hpp"
#include "workflow/function_spec.hpp"

namespace xanadu::workflow {

using common::NodeId;

/// How a node's completion triggers its children.
enum class DispatchMode {
  /// All child edges fire (1:1 when there is one child, 1:m multicast
  /// otherwise).
  All,
  /// Exactly one child edge fires, sampled by edge probability (the paper's
  /// "XOR cast").
  Xor,
};

/// A directed edge parent -> child.
struct Edge {
  NodeId child;
  /// For Xor parents: relative likelihood of this branch being taken.
  /// For All parents this is fixed at 1.0.
  double probability = 1.0;
  /// Delay between the parent completing (or, for implicit chains, invoking
  /// the child mid-execution) and the child trigger arriving.  Models the
  /// network/signalling delay of function-to-function calls.
  sim::Duration delay = sim::Duration::zero();
};

/// A function occurrence inside a workflow.
struct Node {
  NodeId id;
  FunctionSpec fn;
  DispatchMode dispatch = DispatchMode::All;
  std::vector<Edge> children;
  std::vector<NodeId> parents;
};

/// Immutable-after-validation workflow graph.
class WorkflowDag {
 public:
  /// Most nodes a workflow may have.  Node ids index per-workflow tables, so
  /// a node id read from outside input (a metadata document) is refused at
  /// or past this bound before it can size one.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 16;

  explicit WorkflowDag(std::string name = "workflow") : name_(std::move(name)) {}

  /// Adds a node; returns its id.  The FunctionSpec is validated eagerly.
  /// Throws std::invalid_argument past kMaxNodes nodes.
  NodeId add_node(FunctionSpec fn, DispatchMode dispatch = DispatchMode::All);

  /// Adds an edge parent -> child.  `probability` is only meaningful when
  /// the parent is an Xor node; it must be positive.
  void add_edge(NodeId parent, NodeId child, double probability = 1.0,
                sim::Duration delay = sim::Duration::zero());

  /// Validates structural invariants: ids in range, acyclicity, at least one
  /// root, positive Xor probabilities, no duplicate edges, unique function
  /// names free of ',', ';', CR and LF (the trace CSV writes names raw).
  /// Throws std::invalid_argument with a description of the first violation.
  void validate() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Nodes without parents (workflow entry points).
  [[nodiscard]] std::vector<NodeId> roots() const;
  /// Nodes without children (workflow sinks).
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// Kahn topological order; throws std::invalid_argument if cyclic.
  [[nodiscard]] std::vector<NodeId> topological_order() const;

  /// Longest path length measured in nodes (a linear chain of n nodes has
  /// depth n).
  [[nodiscard]] std::size_t depth() const;

  /// Number of Xor nodes with more than one child -- the paper's
  /// "conditional points" (Figure 14b's x axis).
  [[nodiscard]] std::size_t conditional_points() const;

  /// Looks a node up by function name; returns an invalid NodeId when absent.
  [[nodiscard]] NodeId find_by_name(const std::string& fn_name) const;

 private:
  void require_valid_id(NodeId id) const;

  std::string name_;
  std::vector<Node> nodes_;
};

}  // namespace xanadu::workflow
