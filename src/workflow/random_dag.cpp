#include "workflow/random_dag.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace xanadu::workflow {

namespace {

/// Probability that a non-root node draws a second (m:1) parent.
constexpr double kExtraParentProbability = 0.3;

}  // namespace

WorkflowDag random_dag(const RandomDagOptions& opts, common::Rng& rng) {
  if (opts.node_count == 0) {
    throw std::invalid_argument{"random_dag: node_count must be >= 1"};
  }
  if (opts.levels == 0) {
    throw std::invalid_argument{"random_dag: levels must be >= 1"};
  }
  if (opts.xor_probability < 0 || opts.xor_probability > 1) {
    throw std::invalid_argument{"random_dag: xor_probability must be in [0, 1]"};
  }
  if (opts.min_bias < 0.5 || opts.max_bias > 1.0 ||
      opts.min_bias > opts.max_bias) {
    throw std::invalid_argument{
        "random_dag: require 0.5 <= min_bias <= max_bias <= 1.0"};
  }

  const std::size_t levels = std::min(opts.levels, opts.node_count);

  // Assign every node a level; level 0 gets exactly one node (single root)
  // and every other level at least one.
  std::vector<std::size_t> level_of(opts.node_count);
  for (std::size_t i = 0; i < opts.node_count; ++i) {
    if (i < levels) {
      level_of[i] = i;  // Guarantee every level at least one node.
    } else {
      // levels >= 2 here: a single-level request forces node_count == levels
      // == 1 through the std::min clamp above, so this branch is never taken
      // with levels == 1... unless the caller asked for one level with many
      // nodes, which would make the extra nodes parentless.  Spread them
      // over levels 1.. instead.
      level_of[i] = levels >= 2 ? 1 + rng.uniform_int(levels - 1) : 0;
    }
  }
  std::sort(level_of.begin(), level_of.end());

  // First pass: create nodes (dispatch modes fixed in the second pass once
  // the child counts are known).
  struct Planned {
    std::size_t level;
    std::vector<std::size_t> parents;
  };
  std::vector<Planned> plan(opts.node_count);
  std::vector<std::vector<std::size_t>> by_level(levels);
  for (std::size_t i = 0; i < opts.node_count; ++i) {
    plan[i].level = level_of[i];
    by_level[level_of[i]].push_back(i);
  }

  std::vector<std::size_t> child_count(opts.node_count, 0);
  for (std::size_t i = 0; i < opts.node_count; ++i) {
    if (plan[i].level == 0) continue;
    // Draw the primary parent from the immediately preceding non-empty
    // level; extra parents may come from any earlier level.
    std::vector<std::size_t> earlier;
    for (std::size_t lvl = 0; lvl < plan[i].level; ++lvl) {
      earlier.insert(earlier.end(), by_level[lvl].begin(), by_level[lvl].end());
    }
    const std::size_t primary = earlier[rng.uniform_int(earlier.size())];
    plan[i].parents.push_back(primary);
    ++child_count[primary];
    if (earlier.size() > 1 && rng.bernoulli(kExtraParentProbability)) {
      std::size_t extra = earlier[rng.uniform_int(earlier.size())];
      if (extra != primary) {
        plan[i].parents.push_back(extra);
        ++child_count[extra];
      }
    }
  }

  // Second pass: build the DAG with dispatch modes and edge probabilities.
  WorkflowDag dag{"rdag-" + std::to_string(opts.node_count)};
  std::vector<NodeId> ids(opts.node_count);
  std::vector<bool> is_xor(opts.node_count, false);
  for (std::size_t i = 0; i < opts.node_count; ++i) {
    is_xor[i] = child_count[i] > 1 && rng.bernoulli(opts.xor_probability);
    FunctionSpec spec;
    spec.name = "d" + std::to_string(i + 1);
    spec.exec_time = opts.base.exec_time;
    spec.exec_jitter = opts.base.exec_jitter;
    spec.memory_mb = opts.base.memory_mb;
    spec.sandbox = opts.base.sandbox;
    ids[i] = dag.add_node(std::move(spec),
                          is_xor[i] ? DispatchMode::Xor : DispatchMode::All);
  }

  // Edge probabilities: XOR parents split 1.0 with a random favoured bias;
  // multicast parents use probability 1 per edge.
  std::vector<std::vector<std::size_t>> children(opts.node_count);
  for (std::size_t i = 0; i < opts.node_count; ++i) {
    for (const std::size_t parent : plan[i].parents) {
      children[parent].push_back(i);
    }
  }
  for (std::size_t parent = 0; parent < opts.node_count; ++parent) {
    const auto& kids = children[parent];
    if (kids.empty()) continue;
    if (is_xor[parent] && kids.size() > 1) {
      const double bias = rng.uniform(opts.min_bias, opts.max_bias);
      const std::size_t favoured = rng.uniform_int(kids.size());
      const double rest =
          (1.0 - bias) / static_cast<double>(kids.size() - 1);
      for (std::size_t k = 0; k < kids.size(); ++k) {
        dag.add_edge(ids[parent], ids[kids[k]], k == favoured ? bias : rest,
                     opts.base.edge_delay);
      }
    } else {
      for (const std::size_t kid : kids) {
        dag.add_edge(ids[parent], ids[kid], 1.0, opts.base.edge_delay);
      }
    }
  }

  dag.validate();
  return dag;
}

}  // namespace xanadu::workflow
