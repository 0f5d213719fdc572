#pragma once

// Random general-DAG workflow generator.
//
// The paper's evaluation corpus is binary trees (random_tree.hpp); this
// generator produces the full relationship taxonomy of Figure 2 -- 1:m
// multicasts, m:1 barriers, XOR casts and m:n combinations -- for property
// testing beyond the paper's workloads.  Construction is layered: nodes are
// assigned to levels, every non-root node draws one parent from the
// previous levels (guaranteeing acyclicity and connectivity) and, with
// probability 0.3, a second (m:1) one, and a configurable fraction of
// multi-child nodes become XOR conditionals with random biases.

#include <cstddef>

#include "common/rng.hpp"
#include "workflow/builders.hpp"
#include "workflow/dag.hpp"

namespace xanadu::workflow {

struct RandomDagOptions {
  std::size_t node_count = 8;
  /// Number of levels the nodes are spread over (>= 1; clamped to
  /// node_count).
  std::size_t levels = 4;
  /// Probability that a node with more than one child becomes an XOR
  /// conditional instead of a multicast.
  double xor_probability = 0.5;
  /// XOR bias of the favoured branch, drawn from U(min_bias, max_bias).
  double min_bias = 0.55;
  double max_bias = 0.95;
  BuildOptions base = {};
};

/// Generates one random layered DAG.  Deterministic for a given rng state.
/// The result is validated (acyclic, connected from a single root level).
[[nodiscard]] WorkflowDag random_dag(const RandomDagOptions& opts,
                                     common::Rng& rng);

}  // namespace xanadu::workflow
