// Ablation: injected message-bus drops x recovery policy (chaos sweep).
//
// The paper's control plane rides Kafka (Section 4); this sweep asks what
// the reproduction's recovery machinery -- daemon-command ack/retry with
// exponential backoff, build re-placement, bounded node re-dispatch -- buys
// when that bus starts losing messages.  Each cell runs the same arrival
// train twice, with recovery on and off, at increasing drop rates.  With
// recovery, completion stays (near) total and the cost shows up as retries
// and extra C_D; without it, every dropped daemon command strands a request
// until the harness fails it over at the stall horizon.
//
// The binary self-checks the headline numbers (>= 95% completion with
// recovery at a 10% drop rate; visible stranding without recovery) and
// exits non-zero on regression, so it doubles as the `abl_faults_smoke`
// CTest with a tiny request count:  abl_faults [requests]
// A request count that is not a whole positive integer, or a second
// argument, exits 2 with an "error:" line on stderr.

#include <charconv>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "bench_util.hpp"
#include "workload/arrivals.hpp"

using namespace xanadu;

namespace {

struct CellResult {
  workload::RunOutcome outcome;
  sim::FaultCounters faults;
  platform::RecoveryStats recovery;
};

CellResult run_cell(double drop_rate, bool recovery, std::size_t requests) {
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  options.seed = 42;
  options.cluster.host_count = 4;
  platform::PlatformCalibration calibration = platform::xanadu_calibration();
  calibration.control_bus.enabled = true;
  options.calibration = calibration;
  options.faults.bus_drop_rate = drop_rate;
  options.recovery.enabled = recovery;
  core::DispatchManager manager{options};
  const auto wf =
      manager.deploy(workflow::linear_chain(4, bench::chain_options(250)));

  workload::RunOptions run;
  run.allow_incomplete = true;
  run.drain_after_last = true;
  run.force_cold_each_request = true;  // every request provisions 4 sandboxes
  CellResult cell;
  cell.outcome = workload::run_schedule(
      manager, wf,
      workload::fixed_interval(requests, sim::Duration::from_seconds(2)), run);
  cell.faults = manager.fault_counters();
  cell.recovery = manager.recovery_stats();
  return cell;
}

/// The request count: the whole token must parse as an integer >= 1.
std::size_t parse_requests(std::string_view text) {
  std::size_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || value == 0) {
    throw std::invalid_argument{"requests: '" + std::string{text} +
                                "' is not a positive integer"};
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 2) throw std::invalid_argument{"usage: abl_faults [requests]"};
    const std::size_t requests = argc > 1 ? parse_requests(argv[1]) : 40;
    bench::banner("Ablation: bus message drops x recovery policy (depth-4 "
                  "chain, cold each request)");

    metrics::Table table{{"drop rate", "recovery completion", "recovery C_D",
                          "cmd retries", "no-recovery completion",
                          "no-recovery stranded"}};
    CellResult headline;  // 10% drop with recovery, for the counter report
    bool ok = true;
    for (const double rate : {0.0, 0.01, 0.05, 0.10, 0.25}) {
      const CellResult with = run_cell(rate, true, requests);
      const CellResult without = run_cell(rate, false, requests);
      table.add_row({metrics::fmt_pct(rate, 0),
                     metrics::fmt_pct(with.outcome.completion_rate()),
                     metrics::fmt_ms(with.outcome.mean_overhead_ms()),
                     std::to_string(with.recovery.command_retries),
                     metrics::fmt_pct(without.outcome.completion_rate()),
                     std::to_string(without.outcome.failed_count())});
      if (rate == 0.10) headline = with;
      // Self-checks: the claims EXPERIMENTS.md quantifies must keep holding.
      if (rate <= 0.10 && with.outcome.completion_rate() < 0.95) ok = false;
      if (rate >= 0.10 && without.outcome.failed_count() == 0) ok = false;
    }
    table.print("completion & C_D vs. drop rate, " +
                std::to_string(requests) + " requests, seed 42");

    metrics::fault_report(headline.faults, headline.recovery)
        .print("fault/recovery counters at 10% drop, recovery on");
    bench::note("without recovery a dropped daemon command strands its "
                "request (failed over at the harness stall horizon); with "
                "recovery the ack timeout re-publishes the command and "
                "completion holds");

    if (!ok) {
      std::fprintf(stderr, "abl_faults: self-check failed -- recovery should "
                           "complete >=95%% at <=10%% drop and no-recovery "
                           "should strand at >=10%%\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
