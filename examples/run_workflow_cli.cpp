// Command-line workflow runner: deploy a state-language JSON workflow on a
// chosen platform, fire requests, and print (or export) the results.
//
// Usage:
//   run_workflow_cli [--file workflow.json] [--mode cold|spec|jit|knative|
//                     openwhisk|asf|adf|prewarm] [--requests N]
//                    [--cold-each] [--aggressiveness F] [--seed N]
//                    [--trace out.csv] [--digest]
//                    [--faults drop=F,dup=F,delay=F,provfail=F,crash=F,
//                              outage=F,straggler=F] [--no-recovery]
//
// --digest prints a stable FNV-1a fingerprint of the run's trace; two runs
// with the same arguments must print the same digest (the determinism test
// suite enforces this property on the underlying engine).
//
// --faults enables seed-deterministic fault injection: drop/dup/delay are
// per-message bus fault probabilities (the control bus is switched on
// automatically so they have a surface), provfail/crash/straggler are
// per-build and per-execution probabilities, and outage is a host-outage
// rate per simulated hour.  --no-recovery disables the retry/re-provision
// machinery, so faulted requests strand and fail instead of recovering.
//
// With no arguments it runs a built-in conditional demo workflow on
// Xanadu JIT.
//
// Bad input -- a malformed or out-of-range flag value, an invalid option, a
// workflow the cluster cannot host -- prints "error: <reason>" on stderr and
// exits with status 2.

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

#include "core/dispatch_manager.hpp"
#include "metrics/report.hpp"
#include "metrics/trace.hpp"
#include "workflow/state_language.hpp"
#include "workload/runner.hpp"

using namespace xanadu;

namespace {

const char* kDemoWorkflow = R"({
  "validate": {"type": "function", "memory": 256, "exec_ms": 250,
               "conditional": "fraud_check"},
  "fraud_check": {"type": "conditional", "wait_for": ["validate"],
                  "success_probability": 0.9,
                  "success": "accept", "fail": "review"},
  "accept": {"type": "branch",
             "charge":  {"type": "function", "exec_ms": 900},
             "fulfil":  {"type": "function", "exec_ms": 600,
                         "wait_for": ["charge"]},
             "notify":  {"type": "function", "exec_ms": 150,
                         "wait_for": ["fulfil"]}},
  "review": {"type": "branch",
             "manual_review": {"type": "function", "exec_ms": 1200}}
})";

struct CliOptions {
  std::string file;
  std::string mode = "jit";
  std::string trace_path;
  int requests = 5;
  bool cold_each = false;
  bool digest = false;
  bool recovery = true;
  double aggressiveness = 1.0;
  std::uint64_t seed = 42;
  sim::FaultPlanOptions faults;
};

/// Parses the whole of `text` as a T; anything else (an empty or partly
/// numeric token, a sign on an unsigned type, a value outside T's range) is
/// an error naming `what`.
template <typename T>
T parse_number(std::string_view text, const std::string& what) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument{what + ": '" + std::string{text} +
                                "' is not a valid number"};
  }
  return value;
}

/// Parses a "--faults drop=0.1,provfail=0.05,..." spec into the plan options.
void parse_fault_spec(const std::string& spec, sim::FaultPlanOptions& faults) {
  std::stringstream stream{spec};
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument{"--faults entries must be class=value, got '" +
                                  item + "'"};
    }
    const std::string key = item.substr(0, eq);
    const auto value = parse_number<double>(
        std::string_view{item}.substr(eq + 1), "--faults " + key);
    if (key == "drop") {
      faults.bus_drop_rate = value;
    } else if (key == "dup") {
      faults.bus_duplicate_rate = value;
    } else if (key == "delay") {
      faults.bus_delay_rate = value;
    } else if (key == "provfail") {
      faults.provision_failure_rate = value;
    } else if (key == "crash") {
      faults.worker_crash_rate = value;
    } else if (key == "outage") {
      faults.host_outage_rate_per_hour = value;
    } else if (key == "straggler") {
      faults.straggler_rate = value;
    } else {
      throw std::invalid_argument{"unknown fault class '" + key + "'"};
    }
  }
  faults.validate();
}

core::PlatformKind parse_mode(const std::string& mode) {
  if (mode == "cold") return core::PlatformKind::XanaduCold;
  if (mode == "spec") return core::PlatformKind::XanaduSpeculative;
  if (mode == "jit") return core::PlatformKind::XanaduJit;
  if (mode == "knative") return core::PlatformKind::KnativeLike;
  if (mode == "openwhisk") return core::PlatformKind::OpenWhiskLike;
  if (mode == "asf") return core::PlatformKind::AsfLike;
  if (mode == "adf") return core::PlatformKind::AdfLike;
  if (mode == "prewarm") return core::PlatformKind::PrewarmAll;
  throw std::invalid_argument{"unknown mode '" + mode + "'"};
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
      return argv[++i];
    };
    if (arg == "--file") {
      options.file = next();
    } else if (arg == "--mode") {
      options.mode = next();
    } else if (arg == "--requests") {
      options.requests = parse_number<int>(next(), arg);
      if (options.requests <= 0) {
        throw std::invalid_argument{"--requests must be positive"};
      }
    } else if (arg == "--cold-each") {
      options.cold_each = true;
    } else if (arg == "--digest") {
      options.digest = true;
    } else if (arg == "--aggressiveness") {
      options.aggressiveness = parse_number<double>(next(), arg);
    } else if (arg == "--seed") {
      options.seed = parse_number<std::uint64_t>(next(), arg);
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--faults") {
      parse_fault_spec(next(), options.faults);
    } else if (arg == "--no-recovery") {
      options.recovery = false;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      throw std::invalid_argument{"unknown argument '" + arg + "'"};
    }
  }
  return true;
}

/// Loads the workflow, runs the requests and prints the report.  Throws on
/// invalid options and on runs the platform cannot carry out.
int run(const CliOptions& options) {
  // Load the workflow document.
  std::string document;
  if (options.file.empty()) {
    document = kDemoWorkflow;
    std::printf("no --file given; running the built-in demo workflow\n");
  } else {
    std::ifstream in{options.file};
    if (!in) {
      std::fprintf(stderr, "error: cannot read '%s'\n", options.file.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    document = buffer.str();
  }

  auto parsed = workflow::parse_state_language(document, "cli-workflow");
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error().message.c_str());
    return 2;
  }
  workflow::WorkflowDag dag = std::move(parsed).value();

  core::DispatchManagerOptions manager_options;
  manager_options.kind = parse_mode(options.mode);
  manager_options.seed = options.seed;
  manager_options.xanadu.aggressiveness = options.aggressiveness;
  manager_options.faults = options.faults;
  manager_options.recovery.enabled = options.recovery;
  const bool bus_faults_requested = options.faults.bus_drop_rate > 0.0 ||
                                    options.faults.bus_duplicate_rate > 0.0 ||
                                    options.faults.bus_delay_rate > 0.0;
  if (bus_faults_requested) {
    // Message faults need a message bus to fault; switch the platform's
    // preset over to bus-routed provisioning commands.
    platform::PlatformCalibration calibration =
        core::preset_calibration(manager_options.kind);
    calibration.control_bus.enabled = true;
    manager_options.calibration = calibration;
  }
  core::DispatchManager manager{manager_options};

  std::printf("workflow '%s': %zu functions, depth %zu, %zu conditional "
              "point(s); platform %s\n\n",
              dag.name().c_str(), dag.node_count(), dag.depth(),
              dag.conditional_points(), core::to_string(manager.kind()));
  const auto wf = manager.deploy(dag);

  std::vector<platform::RequestResult> results;
  std::printf("request | end-to-end | overhead C_D | cold | misses\n");
  for (int i = 0; i < options.requests; ++i) {
    if (options.cold_each) manager.force_cold_start();
    const auto result = manager.invoke(wf);
    if (result.failed) {
      std::printf("%7d | FAILED: %s\n", i + 1, result.failure_reason.c_str());
    } else {
      std::printf("%7d | %9.2fs | %11.2fs | %4zu | %zu\n", i + 1,
                  result.end_to_end.seconds(), result.overhead.seconds(),
                  result.cold_starts, result.speculation.missed_nodes);
    }
    results.push_back(result);
  }

  if (options.faults.any_enabled()) {
    std::size_t failed = 0;
    for (const auto& r : results) failed += r.failed ? 1 : 0;
    std::printf("\nfault injection: %zu/%zu requests completed (recovery %s)\n",
                results.size() - failed, results.size(),
                options.recovery ? "on" : "off");
    metrics::fault_report(manager.fault_counters(), manager.recovery_stats())
        .print("fault/recovery counters");
  }

  const auto& ledger = manager.ledger();
  std::printf("\nworkers provisioned %zu (wasted %zu); idle memory %.0f MBs; "
              "pre-use memory %.0f MBs\n",
              ledger.workers_provisioned, ledger.workers_wasted,
              ledger.idle_memory_mb_seconds, ledger.pre_use_memory_mb_seconds);

  if (options.digest) {
    std::printf("trace digest: %s\n",
                metrics::digest_hex(metrics::trace_digest(results, dag)).c_str());
  }

  if (!options.trace_path.empty()) {
    std::ofstream out{options.trace_path};
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   options.trace_path.c_str());
      return 2;
    }
    out << metrics::trace_csv(results, dag);
    std::printf("trace written to %s\n", options.trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliOptions options;
    if (!parse_args(argc, argv, options)) {
      std::printf("usage: %s [--file workflow.json] [--mode cold|spec|jit|"
                  "knative|openwhisk|asf|adf|prewarm]\n"
                  "          [--requests N] [--cold-each] "
                  "[--aggressiveness F] [--seed N] [--trace out.csv] "
                  "[--digest]\n"
                  "          [--faults drop=F,dup=F,delay=F,provfail=F,"
                  "crash=F,outage=F,straggler=F] [--no-recovery]\n",
                  argv[0]);
      return 0;
    }
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
