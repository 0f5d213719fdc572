// Figure 17: real-world case studies -- an e-commerce checkout pipeline
// (implicit chain, heterogeneous runtimes) and an image-processing pipeline
// (explicit chain, short homogeneous runtimes).
//
// Paper claims reproduced here:
//   * e-commerce: Knative and OpenWhisk pay cascading cold-start overheads
//     of ~520% and ~130% of the end-to-end execution latency; Xanadu brings
//     that down to ~70%,
//   * image pipeline: Xanadu reduces overhead ~5x vs Knative and ~2x vs
//     OpenWhisk.

#include <map>

#include "bench_util.hpp"
#include "workload/case_studies.hpp"

using namespace xanadu;

namespace {

void run_case(const char* title, const workflow::WorkflowDag& dag,
              double exec_total_ms, core::ChainKnowledge knowledge,
              const char* paper_note) {
  metrics::Table table{{"platform", "exec latency", "overhead C_D",
                        "overhead / exec"}};
  std::map<std::string, double> overheads;
  for (const auto& [name, kind] : bench::standard_systems()) {
    core::XanaduOptions xo;
    xo.knowledge = knowledge;
    auto manager = bench::make_manager(kind, 17, xo);
    const auto wf = manager.deploy(dag);
    bench::train_profiles(manager, wf, 3);
    const auto outcome = workload::run_cold_trials(manager, wf, 10);
    overheads[name] = outcome.mean_overhead_ms();
    table.add_row({name,
                   metrics::fmt_ms(outcome.mean_end_to_end_ms() -
                                   outcome.mean_overhead_ms()),
                   metrics::fmt_ms(outcome.mean_overhead_ms()),
                   metrics::fmt_pct(outcome.mean_overhead_ms() / exec_total_ms)});
  }
  table.print(title);
  std::printf("  xanadu-jit improvement: %.1fx vs knative, %.1fx vs openwhisk\n",
              overheads["knative"] / overheads["xanadu-jit"],
              overheads["openwhisk"] / overheads["xanadu-jit"]);
  bench::note(paper_note);
}

}  // namespace

int main() {
  bench::banner("Figure 17: real-world case studies");
  run_case("Figure 17a: e-commerce checkout (implicit chain; order 2000ms, "
           "discount 100ms, payment 2500ms, invoice 300ms, shipping 500ms)",
           workload::ecommerce_checkout(), 5400.0,
           core::ChainKnowledge::Implicit,
           "paper: overheads ~520% (knative) / ~130% (openwhisk) of exec; "
           "xanadu ~70%");
  run_case("Figure 17b: image-processing pipeline (explicit chain; scale "
           "400ms, contrast 350ms, rotate 600ms, blur 500ms, grayscale 300ms)",
           workload::image_pipeline(), 2150.0,
           core::ChainKnowledge::Explicit,
           "paper: xanadu reduces overhead ~5x vs knative and ~2x vs openwhisk");
  return 0;
}
