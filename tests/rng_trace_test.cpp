// Runtime cross-validation of the flow analysis's draw-site prediction.
//
// Built only under -DXANADU_RNG_TRACE=ON (CMake option of the same name):
// with the flag on, every common::Rng draw records its call site
// (std::source_location of the outermost textual draw) into an interned
// global set.  This test runs pinned scenarios that exercise the platform
// end to end, collects the observed draw-site set, invokes the analyzer's
// --draw-sites dump over src/ and bench/, and checks SOUNDNESS: every
// runtime-observed draw site under src/ or bench/ must fall inside a span
// the analyzer statically predicted.  (The converse -- every predicted site
// observed -- is deliberately not required: prediction over-approximates
// across configurations, e.g. fault-layer draws only execute in faulted
// runs.)
//
// The full suite runs in the same flagged build (CI job rng-trace), so the
// GoldenDigestGuard constants double as proof that tracing changes no drawn
// values.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "workload/case_studies.hpp"

#if !defined(XANADU_RNG_TRACE)

TEST(rng_trace, RequiresTracingBuild) {
  GTEST_SKIP() << "built without -DXANADU_RNG_TRACE=ON; nothing to observe";
}

#else

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;

/// One end-to-end scenario: deploy + submit + run.  Faults and the control
/// bus widen the set of draw sites actually executed.
void run_scenario(PlatformKind kind, bool faulted) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = 42;
  if (faulted) {
    platform::PlatformCalibration calibration =
        platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    options.faults.bus_drop_rate = 0.05;
    options.faults.provision_failure_rate = 0.1;
    options.faults.straggler_rate = 0.2;
    options.recovery.enabled = true;
  }
  DispatchManager manager{options};
  const auto wf = manager.deploy(workload::ecommerce_checkout());
  for (int i = 0; i < 3; ++i) {
    (void)manager.submit(wf, [](const platform::RequestResult&) {});
  }
  manager.simulator().run();
}

struct Span {
  int line = 0;
  int end_line = 0;
};

/// Runs xan_lint --draw-sites from the source root and parses the dump.
std::map<std::string, std::vector<Span>> predicted_sites(
    const std::string& dump_name) {
  // The analyzer runs from the source root (so findings and draw-site
  // labels come out repo-relative); the dump path must therefore be
  // absolute or it lands there instead of the test's cwd.
  const std::string dump_path =
      std::filesystem::absolute(dump_name).string();
  const std::string command = std::string("cd \"") + XANADU_SOURCE_DIR +
                              "\" && \"" + XANADU_PYTHON +
                              "\" tools/xan_lint.py --rule flow" +
                              " --draw-sites \"" + dump_path +
                              "\" src bench > /dev/null 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << "xan_lint must exit clean on the fixed tree";

  std::ifstream in{dump_path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = common::parse_json(buffer.str());
  EXPECT_TRUE(parsed.ok()) << "draw-site dump must be valid JSON";

  std::map<std::string, std::vector<Span>> spans;
  const common::JsonArray& sites =
      parsed.value().as_object().at("draw_sites").as_array();
  for (const common::JsonValue& site : sites) {
    const common::JsonObject& obj = site.as_object();
    Span span;
    span.line = static_cast<int>(obj.at("line").as_number());
    span.end_line = static_cast<int>(obj.at("end_line").as_number());
    spans[obj.at("file").as_string()].push_back(span);
  }
  return spans;
}

TEST(rng_trace, ObservedDrawSitesAreSubsetOfPredicted) {
  common::rng_trace::clear();

  // A direct draw proves the recording machinery is on before anything else
  // is asserted about the engine runs.
  common::Rng probe{7};
  (void)probe.uniform();
  ASSERT_FALSE(common::rng_trace::observed_sites().empty())
      << "tracing build records no sites; XANADU_RNG_TRACE wiring broke";

  run_scenario(PlatformKind::XanaduSpeculative, /*faulted=*/false);
  run_scenario(PlatformKind::XanaduJit, /*faulted=*/true);
  run_scenario(PlatformKind::KnativeLike, /*faulted=*/false);

  const std::vector<std::string> observed =
      common::rng_trace::observed_sites();

  const auto spans = predicted_sites("rng_trace_draw_sites.json");
  ASSERT_FALSE(spans.empty());

  std::size_t checked = 0;
  for (const std::string& site : observed) {
    const std::size_t colon = site.rfind(':');
    ASSERT_NE(colon, std::string::npos) << site;
    const std::string file = site.substr(0, colon);
    const int line = std::stoi(site.substr(colon + 1));
    // Soundness is claimed for the roots the analyzer scanned.
    if (file.rfind("src/", 0) != 0 && file.rfind("bench/", 0) != 0) continue;
    ++checked;
    bool found = false;
    auto it = spans.find(file);
    if (it != spans.end()) {
      for (const Span& span : it->second) {
        // Compilers may attribute a multi-line call's source_location to
        // the statement's first line, up to two lines above the method
        // token; the predicted span covers the call through its closing
        // parenthesis.
        if (line >= span.line - 2 && line <= span.end_line) {
          found = true;
          break;
        }
      }
    }
    EXPECT_TRUE(found) << "runtime-observed draw site " << site
                       << " was not statically predicted: the analyzer "
                          "missed a draw (soundness violation)";
  }
  // The scenarios above must actually exercise in-tree draw sites, or the
  // subset check passes vacuously.
  EXPECT_GT(checked, 5u);
}

TEST(rng_trace, ClearForgetsRecordedSites) {
  common::rng_trace::clear();
  common::Rng rng{11};
  (void)rng.next();
  EXPECT_FALSE(common::rng_trace::observed_sites().empty());
  common::rng_trace::clear();
  EXPECT_TRUE(common::rng_trace::observed_sites().empty());
}

}  // namespace
}  // namespace xanadu

#endif  // XANADU_RNG_TRACE
