#include "workload/case_studies.hpp"

#include <utility>
#include <vector>

namespace xanadu::workload {

namespace {

/// Execution-time jitter (stddev) as a fraction of each stage's mean.
constexpr double kJitterFraction = 0.05;

workflow::WorkflowDag build_linear(
    std::string name,
    const std::vector<std::pair<const char*, double>>& stages) {
  workflow::WorkflowDag dag{std::move(name)};
  common::NodeId prev{};
  bool first = true;
  for (const auto& [stage_name, exec_ms] : stages) {
    workflow::FunctionSpec spec;
    spec.name = stage_name;
    spec.exec_time = sim::Duration::from_millis(exec_ms);
    spec.exec_jitter = sim::Duration::from_millis(exec_ms * kJitterFraction);
    const common::NodeId id = dag.add_node(std::move(spec));
    if (!first) {
      dag.add_edge(prev, id, 1.0, sim::Duration::from_millis(8));
    }
    prev = id;
    first = false;
  }
  dag.validate();
  return dag;
}

}  // namespace

workflow::WorkflowDag ecommerce_checkout() {
  return build_linear("ecommerce-checkout",
                      {{"order", 2000.0},
                       {"discount", 100.0},
                       {"payment", 2500.0},
                       {"invoice", 300.0},
                       {"shipping", 500.0}});
}

workflow::WorkflowDag image_pipeline() {
  return build_linear("image-pipeline",
                      {{"scale", 400.0},
                       {"contrast", 350.0},
                       {"rotate", 600.0},
                       {"blur", 500.0},
                       {"grayscale", 300.0}});
}

}  // namespace xanadu::workload
