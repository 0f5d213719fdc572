#pragma once

// The paper's end-to-end case studies (Section 5.6), with per-stage runtimes
// taken from the text:
//
//   E-commerce checkout (implicit chain):
//     Order (~2000 ms) -> Discount (~100 ms) -> Payment (~2500 ms)
//       -> Invoice (~300 ms) -> Shipping (~500 ms)
//
//   Image-processing pipeline (explicit chain, JIMP-like stages):
//     Scale (~400 ms) -> Contrast (~350 ms) -> Rotate (~600 ms)
//       -> Blur (~500 ms) -> Grayscale (~300 ms)
//
// Every stage keeps FunctionSpec's 512 MB container and adds an
// execution-time jitter of 5 % of its mean (stddev): real microservice
// stages are not perfectly deterministic.

#include "workflow/dag.hpp"

namespace xanadu::workload {

/// The e-commerce checkout chain.  Highly heterogeneous stage runtimes
/// (100 ms .. 2500 ms) exercise the JIT planner's timeline estimation.
[[nodiscard]] workflow::WorkflowDag ecommerce_checkout();

/// The image-processing pipeline.  Short, homogeneous stages: cascading
/// cold starts dominate end-to-end latency.
[[nodiscard]] workflow::WorkflowDag image_pipeline();

}  // namespace xanadu::workload
