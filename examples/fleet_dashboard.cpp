// Distributed-architecture walkthrough (paper Figure 11): the Dispatch
// Manager sends provisioning commands to per-host Dispatch Daemons over the
// control bus (the Kafka stand-in), worker lifecycle events flow back on the
// "workers" topic, and a WorkerStateTracker consumes them to render a
// fleet dashboard -- eventually consistent, exactly like a real
// Kafka-backed control plane.
//
// Takes no arguments; any argument prints an error: line and exits 2.

#include <cstdio>

#include "cluster/cluster.hpp"
#include "core/dispatch_manager.hpp"
#include "platform/worker_state.hpp"
#include "workflow/builders.hpp"

using namespace xanadu;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "error: fleet_dashboard takes no arguments (got '%s')\n",
                 argv[1]);
    return 2;
  }
  // A 4-host cluster with the control bus enabled (6 ms one-way latency).
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  options.cluster.host_count = 4;
  auto calibration = platform::xanadu_calibration();
  calibration.control_bus.enabled = true;
  calibration.control_bus.latency = sim::Duration::from_millis(6);
  options.calibration = calibration;
  core::DispatchManager manager{options};

  platform::MessageBus* bus = manager.engine().control_bus();
  platform::WorkerStateTracker tracker{*bus};

  workflow::BuildOptions chain;
  chain.exec_time = sim::Duration::from_seconds(2);
  const auto wf = manager.deploy(workflow::linear_chain(6, chain));

  auto dashboard = [&](const char* moment) {
    std::printf("%-28s | live %2zu | provisioning %2zu | busy %2zu | idle %2zu "
                "| bus msgs %llu\n",
                moment, tracker.live_count(),
                tracker.count(platform::WorkerEventKind::Provisioning),
                tracker.count(platform::WorkerEventKind::Busy),
                tracker.count(platform::WorkerEventKind::Idle),
                static_cast<unsigned long long>(bus->published_count()));
  };

  std::printf("fleet dashboard (4 hosts, control bus @6ms)\n\n");
  dashboard("boot");

  // Fire a request and sample the dashboard mid-flight.
  bool done = false;
  manager.submit(wf, [&](const platform::RequestResult&) { done = true; });
  manager.simulator().run_until(manager.simulator().now() +
                                sim::Duration::from_seconds(2));
  dashboard("t+2s (provisioning burst)");
  manager.simulator().run_until(manager.simulator().now() +
                                sim::Duration::from_seconds(5));
  dashboard("t+7s (chain executing)");
  while (!done) {
    manager.simulator().run_until(manager.simulator().now() +
                                  sim::Duration::from_seconds(1));
  }
  manager.idle_for(sim::Duration::from_seconds(1));
  dashboard("request complete");

  manager.force_cold_start();
  manager.idle_for(sim::Duration::from_seconds(1));
  dashboard("fleet torn down");

  std::printf("\nper-host placement of the run:\n");
  for (std::size_t h = 0; h < 4; ++h) {
    const auto& host = manager.cluster().host(common::HostId{h});
    std::printf("  host %zu: %.0f MB in use\n", h, host.memory_used_mb());
  }
  return 0;
}
