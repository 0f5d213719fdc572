// Simulator scale-throughput benchmark: the first point on the repo's
// recorded performance trajectory (BENCH_scale.json).
//
// Three families of presets:
//
//   * macro replay -- Poisson arrival schedules (10k / 100k / 1M requests)
//     replayed through full platform presets (Knative-like baseline and
//     Xanadu JIT), the same open-loop macro shape as the paper's 16 h traces
//     (Figures 6-8).  Reports wall-clock events/sec over the whole replay,
//     the virtual-to-wall speedup, and peak RSS.
//
//   * sharded thread curve -- the same 100k macro replay split across four
//     tenant shards (each its own DispatchManager with the control bus
//     bridged to a fleet shard) and drained by the conservative parallel
//     driver at threads 1/2/4/8.  One preset per thread count; digests,
//     event counts, rounds (`windows`) and cross-shard messages must be
//     byte-identical across the curve (thread count buys wall-clock time
//     only), and `speedup_vs_one_thread` records the scaling.  Outside
//     --smoke, a point with threads <= hardware_concurrency that runs slower
//     than threads=1 fails the run; --smoke checks only the deterministic
//     counters.  The emitted `threads` / document-level
//     `hardware_concurrency` fields keep curves from different machines
//     comparable.
//
//   * queue hot path -- raw Simulator churn with no platform on top:
//     a sliding window of pending events where every fired event schedules a
//     successor and half of all scheduled events are cancelled late (the
//     tombstone-heavy pattern speculative deployment produces).  This
//     isolates the event-queue data structure itself, which is what the
//     slab-heap rework targets.
//
// Wall-clock timing and RSS live here (not in src/) on purpose: bench/ is
// outside the determinism lint's scanned tree, and nothing measured here
// feeds back into virtual time.
//
// Usage:
//   scale_throughput [--smoke] [--full] [--huge] [--rss-gate-mib N]
//                    [--json PATH]
//     --smoke         tiny presets plus hard self-checks; used by the
//                     scale_throughput_smoke CTest and CI (no JSON by default)
//     --full          adds the 1M-request macro presets to the sweep
//     --huge          adds a 10M-request Xanadu JIT preset (streamed, with a
//                     bounded arrival window; digest not comparable to the
//                     prescheduled presets -- see RunOptions::arrival_window)
//     --rss-gate-mib  fail (exit 1) if peak RSS exceeds N MiB at the end of
//                     the sweep; the nightly CI gate
//     --json          output path (default BENCH_scale.json; "-" disables)
//
// Macro presets run with RunOptions::retain_results = false: aggregates,
// digest and histogram stream during the replay, so peak RSS stays flat in
// request count (the gate above enforces this).
//
// The emitted BENCH_scale.json schema is documented in ARCHITECTURE.md
// ("BENCH_scale.json schema").

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "metrics/trace.hpp"
#include "platform/calibration.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"
#include "workload/traffic_mix.hpp"

namespace {

using namespace xanadu;

using Clock = bench::WallClock;
using bench::peak_rss_mib;
using bench::seconds_since;

struct PresetResult {
  std::string name;
  std::string family;  // "macro" | "sharded" | "queue"
  std::string platform;
  unsigned threads = 1;  // OS threads used; 1 for the sequential families.
  // events/s relative to this curve's threads=1 point (1.0 outside the
  // sharded family -- the sequential families have no curve to scale on).
  double speedup_vs_one_thread = 1.0;
  std::size_t requests = 0;        // macro: request count; queue: op target
  std::uint64_t events_fired = 0;  // simulator events fired during the run
  std::uint64_t queue_ops = 0;     // schedules + cancels + fires
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double queue_ops_per_sec = 0.0;
  double virtual_seconds = 0.0;
  double speedup_virtual_over_wall = 0.0;
  double rss_peak_mib = 0.0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::string digest;  // macro only: trace digest, pins determinism
  // sharded family only (0 elsewhere): driver rounds, one barrier each, and
  // messages merged through the cross-shard mailbox.
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
};

/// Poisson schedule with an exact arrival count (workload::poisson fills a
/// horizon instead, which would make the request count seed-dependent).
workload::ArrivalSchedule poisson_exact(std::size_t count,
                                        sim::Duration mean_gap,
                                        common::Rng& rng) {
  workload::ArrivalSchedule schedule;
  schedule.reserve(count);
  sim::Duration t = sim::Duration::zero();
  for (std::size_t i = 0; i < count; ++i) {
    t += sim::Duration::from_micros(static_cast<std::int64_t>(
        std::ceil(rng.exponential(static_cast<double>(mean_gap.micros())))));
    schedule.push_back(t);
  }
  return schedule;
}

PresetResult run_macro(core::PlatformKind kind, std::size_t requests,
                       std::uint64_t seed, std::size_t arrival_window = 0) {
  auto manager = bench::make_manager(kind, seed);
  const auto wf = manager.deploy(
      workflow::linear_chain(4, bench::chain_options(5.0)));
  // Train profiles first so the replay exercises the speculative
  // schedule-then-cancel path, not just cold dispatch.
  bench::train_profiles(manager, wf, 2);
  common::Rng arrivals_rng{seed ^ 0x5ca1ab1eULL};
  const workload::ArrivalSchedule schedule =
      poisson_exact(requests, sim::Duration::from_millis(20), arrivals_rng);

  // Stream-only replay: per-request results are folded into the digest and
  // aggregates as they complete, never retained, so peak RSS is flat in
  // `requests` (the point of the --rss-gate-mib check).
  workload::RunOptions options;
  options.retain_results = false;
  options.arrival_window = arrival_window;

  const std::uint64_t events_before = manager.simulator().events_fired();
  const sim::TimePoint virtual_before = manager.simulator().now();
  const auto start = Clock::now();
  const workload::RunOutcome outcome =
      workload::run_schedule(manager, wf, schedule, options);
  const double wall = seconds_since(start);
  const std::uint64_t events =
      manager.simulator().events_fired() - events_before;
  const double virtual_span =
      (manager.simulator().now() - virtual_before).seconds();

  PresetResult result;
  result.family = "macro";
  result.platform = core::to_string(kind);
  result.name = std::string{core::to_string(kind)} + "_" +
                std::to_string(requests / 1000) + "k";
  result.requests = requests;
  result.events_fired = events;
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  result.virtual_seconds = virtual_span;
  result.speedup_virtual_over_wall = wall > 0.0 ? virtual_span / wall : 0.0;
  result.rss_peak_mib = peak_rss_mib();
  result.completed = outcome.completed_count();
  result.failed = outcome.failed_count();
  result.digest = metrics::digest_hex(outcome.trace_digest);
  return result;
}

/// The sharded scenario behind the thread curve: `requests` total arrivals
/// split evenly across four tenant shards, each a full Xanadu JIT
/// DispatchManager (own simulator/cluster/engine) replaying the same 4-node
/// chain as the macro presets.  The control bus is enabled so worker
/// telemetry bridges into the fleet shard -- the curve measures the real
/// cross-shard drain, not four independent simulators side by side.
struct ShardedScenario {
  std::vector<std::unique_ptr<core::DispatchManager>> managers;
  std::vector<workload::ShardedSource> shards;
};

ShardedScenario make_sharded_scenario(std::size_t requests,
                                      std::uint64_t seed) {
  constexpr std::size_t kTenants = 4;
  ShardedScenario scenario;
  for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
    core::DispatchManagerOptions options;
    options.kind = core::PlatformKind::XanaduJit;
    options.seed = seed + 1000 * tenant;
    platform::PlatformCalibration calibration = platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    auto manager = std::make_unique<core::DispatchManager>(options);

    workload::ShardedSource source;
    source.manager = manager.get();
    source.workflow = manager->deploy(
        workflow::linear_chain(4, bench::chain_options(5.0)));
    bench::train_profiles(*manager, source.workflow, 2);
    source.name = "tenant-" + std::to_string(tenant);
    common::Rng arrivals_rng{(seed ^ 0x5ca1ab1eULL) + tenant};
    source.schedule = poisson_exact(requests / kTenants,
                                    sim::Duration::from_millis(20),
                                    arrivals_rng);
    scenario.shards.push_back(std::move(source));
    scenario.managers.push_back(std::move(manager));
  }
  return scenario;
}

PresetResult run_sharded(std::size_t requests, unsigned threads,
                         std::uint64_t seed) {
  ShardedScenario scenario = make_sharded_scenario(requests, seed);
  std::size_t scheduled = 0;
  for (const workload::ShardedSource& source : scenario.shards) {
    scheduled += source.schedule.size();
  }

  workload::RunOptions options;
  options.retain_results = false;
  options.threads = threads;
  const auto start = Clock::now();
  const workload::ShardedOutcome outcome =
      workload::run_sharded_mix(scenario.shards, options);
  const double wall = seconds_since(start);
  double virtual_span = 0.0;
  for (const std::unique_ptr<core::DispatchManager>& manager :
       scenario.managers) {
    virtual_span = std::max(virtual_span, manager->simulator().now().seconds());
  }

  PresetResult result;
  result.family = "sharded";
  result.platform = "xanadu-jit";
  result.name = "sharded_" + std::to_string(requests / 1000) + "k_t" +
                std::to_string(threads);
  result.threads = threads;
  result.requests = scheduled;
  result.events_fired = outcome.events_fired;
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(outcome.events_fired) / wall : 0.0;
  result.virtual_seconds = virtual_span;
  result.speedup_virtual_over_wall = wall > 0.0 ? virtual_span / wall : 0.0;
  result.rss_peak_mib = peak_rss_mib();
  result.completed = outcome.mixed.aggregate.completed_count();
  result.failed = outcome.mixed.aggregate.failed_count();
  result.digest = metrics::digest_hex(outcome.mixed.aggregate.trace_digest);
  result.windows = outcome.windows;
  result.cross_shard_messages = outcome.cross_shard_messages;
  return result;
}

/// Raw event-queue churn: window of pending events, one successor scheduled
/// per fire, and every other scheduled event is a decoy that is cancelled
/// ~1 virtual second later (a long-lived tombstone under the old queue).
PresetResult run_queue_hotpath(std::size_t target_ops) {
  sim::Simulator sim;
  common::Rng rng{0xfeedfaceULL};

  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::vector<common::EventId> decoys;
  decoys.reserve(2048);

  // Self-scheduling chain: fires drive new schedules until the op budget is
  // spent.  Captures stay small so the callback fits EventFn inline storage.
  struct Driver {
    sim::Simulator* sim;
    common::Rng* rng;
    std::uint64_t* scheduled;
    std::uint64_t* cancelled;
    std::vector<common::EventId>* decoys;
    std::size_t target;

    void step() const {
      if (*scheduled >= target) return;
      // Real successor.
      *scheduled += 1;
      const auto delay = sim::Duration::from_micros(
          1 + static_cast<std::int64_t>(rng->uniform_int(997)));
      Driver self = *this;
      sim->schedule_after(delay, [self] { self.step(); });
      // Decoy: scheduled far out, cancelled once the batch fills -- the
      // speculative-provision-then-miss shape.
      *scheduled += 1;
      decoys->push_back(sim->schedule_after(
          sim::Duration::from_seconds(1), [] {}));
      if (decoys->size() >= 1024) {
        for (const auto id : *decoys) {
          if (sim->cancel(id)) *cancelled += 1;
        }
        decoys->clear();
      }
    }
  };

  const Driver driver{&sim,      &rng,   &scheduled,
                      &cancelled, &decoys, target_ops};
  constexpr std::size_t kWindow = 256;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kWindow; ++i) {
    scheduled += 1;
    sim.schedule_after(
        sim::Duration::from_micros(
            1 + static_cast<std::int64_t>(rng.uniform_int(997))),
        [driver] { driver.step(); });
  }
  sim.run();
  const double wall = seconds_since(start);

  PresetResult result;
  result.family = "queue";
  result.platform = "none";
  result.name = "queue_hotpath_" + std::to_string(target_ops / 1000) + "k";
  result.requests = target_ops;
  result.events_fired = sim.events_fired();
  result.queue_ops = scheduled + cancelled + sim.events_fired();
  result.wall_seconds = wall;
  result.events_per_sec =
      wall > 0.0 ? static_cast<double>(sim.events_fired()) / wall : 0.0;
  result.queue_ops_per_sec =
      wall > 0.0 ? static_cast<double>(result.queue_ops) / wall : 0.0;
  result.virtual_seconds = sim.now().seconds();
  result.speedup_virtual_over_wall =
      wall > 0.0 ? result.virtual_seconds / wall : 0.0;
  result.rss_peak_mib = peak_rss_mib();
  result.completed = scheduled - cancelled;
  // Determinism pin for the queue family (the macro digest covers the
  // platform; this covers the raw event queue): fold the op counters and the
  // final virtual clock, all of which shift if ordering or tombstone
  // handling changes.
  std::uint64_t digest = common::fnv1a_u64(scheduled);
  digest = common::fnv1a_u64(cancelled, digest);
  digest = common::fnv1a_u64(sim.events_fired(), digest);
  digest = common::fnv1a_u64(
      static_cast<std::uint64_t>(sim.now().micros()), digest);
  result.digest = metrics::digest_hex(digest);
  return result;
}

common::JsonValue to_json(const PresetResult& r) {
  common::JsonObject o;
  o.set("name", r.name);
  o.set("family", r.family);
  o.set("platform", r.platform);
  o.set("threads", static_cast<double>(r.threads));
  o.set("speedup_vs_one_thread", r.speedup_vs_one_thread);
  o.set("requests", static_cast<double>(r.requests));
  o.set("events_fired", static_cast<double>(r.events_fired));
  o.set("queue_ops", static_cast<double>(r.queue_ops));
  o.set("wall_seconds", r.wall_seconds);
  o.set("events_per_sec", r.events_per_sec);
  o.set("queue_ops_per_sec", r.queue_ops_per_sec);
  o.set("virtual_seconds", r.virtual_seconds);
  o.set("speedup_virtual_over_wall", r.speedup_virtual_over_wall);
  o.set("rss_peak_mib", r.rss_peak_mib);
  o.set("completed", static_cast<double>(r.completed));
  o.set("failed", static_cast<double>(r.failed));
  o.set("digest", r.digest);
  o.set("windows", static_cast<double>(r.windows));
  o.set("cross_shard_messages", static_cast<double>(r.cross_shard_messages));
  return common::JsonValue{std::move(o)};
}

void print_result(const PresetResult& r) {
  std::printf(
      "  %-18s %9zu req  %12llu events  %8.3fs wall  %12.0f ev/s  "
      "%9.0fx speedup  %7.1f MiB peak\n",
      r.name.c_str(), r.requests,
      static_cast<unsigned long long>(r.events_fired), r.wall_seconds,
      r.events_per_sec, r.speedup_virtual_over_wall, r.rss_peak_mib);
  if (r.queue_ops > 0) {
    std::printf("  %-18s %30llu queue ops  %21.0f ops/s\n", "",
                static_cast<unsigned long long>(r.queue_ops),
                r.queue_ops_per_sec);
  }
  if (r.family == "sharded") {
    std::printf("  %-18s %9llu rounds  %12llu cross-shard msgs  %6.2fx vs "
                "threads=1\n",
                "", static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.cross_shard_messages),
                r.speedup_vs_one_thread);
  }
}

void fail(const char* what) {
  std::fprintf(stderr, "scale_throughput: SELF-CHECK FAILED: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool full = false;
  bool huge = false;
  double rss_gate_mib = 0.0;  // 0 = no gate
  std::string json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      json_path = "-";
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else if (std::strcmp(argv[i], "--rss-gate-mib") == 0 && i + 1 < argc) {
      rss_gate_mib = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: scale_throughput [--smoke] [--full] [--huge] "
                   "[--rss-gate-mib N] [--json PATH]\n");
      return 2;
    }
  }

  bench::banner(smoke ? "Simulator scale throughput (smoke)"
                      : "Simulator scale throughput");

  std::vector<PresetResult> results;
  const std::vector<std::size_t> macro_sizes =
      smoke ? std::vector<std::size_t>{2'000}
            : (full ? std::vector<std::size_t>{10'000, 100'000, 1'000'000}
                    : std::vector<std::size_t>{10'000, 100'000});
  for (const std::size_t requests : macro_sizes) {
    for (const core::PlatformKind kind :
         {core::PlatformKind::KnativeLike, core::PlatformKind::XanaduJit}) {
      results.push_back(run_macro(kind, requests, /*seed=*/42));
      print_result(results.back());
    }
  }
  if (huge) {
    // The 10M point: streamed (no retained results) with a bounded arrival
    // window, so both the result vector and the pending-arrival events stay
    // flat.  Window N > 0 changes the event-creation sequence, so this
    // preset's digest pins only its own configuration (see the usage note).
    results.push_back(run_macro(core::PlatformKind::XanaduJit, 10'000'000,
                                /*seed=*/42, /*arrival_window=*/8192));
    print_result(results.back());
  }
  // Sharded thread curve: the conservative parallel drain over the same
  // request volume as the largest default macro preset.  The threads=1 point
  // is the sequential reference the speedups are measured against.
  const std::size_t sharded_requests = smoke ? 2'000 : 100'000;
  std::vector<std::size_t> curve_index;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    PresetResult point = run_sharded(sharded_requests, threads, /*seed=*/42);
    if (threads > 1) {
      const PresetResult& base = results[curve_index.front()];
      point.speedup_vs_one_thread =
          base.events_per_sec > 0.0 ? point.events_per_sec / base.events_per_sec
                                    : 0.0;
    }
    curve_index.push_back(results.size());
    results.push_back(std::move(point));
    print_result(results.back());
  }

  results.push_back(run_queue_hotpath(smoke ? 100'000 : 2'000'000));
  print_result(results.back());

  // Self-checks (always on; --smoke exists so CTest runs them quickly).
  for (const PresetResult& r : results) {
    if (r.threads == 0) fail("a preset recorded zero threads");
    if (r.family == "macro" || r.family == "sharded") {
      if (r.completed != r.requests) fail("macro preset lost requests");
      if (r.failed != 0) fail("macro preset had failed requests");
      if (r.digest.empty() || r.digest == metrics::digest_hex(0)) {
        fail("macro preset produced a null digest");
      }
      if (r.events_fired < r.requests) fail("implausibly few events fired");
    } else {
      if (r.events_fired == 0 || r.queue_ops < r.requests) {
        fail("queue hot path did not reach its op target");
      }
      if (r.digest.empty() || r.digest == metrics::digest_hex(0)) {
        fail("queue preset produced a null digest");
      }
    }
    if (r.speedup_virtual_over_wall <= 1.0) {
      fail("virtual time ran slower than wall clock");
    }
  }
  // Replay determinism: the same seed must reproduce the first macro digest.
  {
    const PresetResult& first = results.front();
    const PresetResult again =
        run_macro(core::PlatformKind::KnativeLike, first.requests, 42);
    if (again.digest != first.digest) fail("macro replay digest diverged");
  }
  // Thread-count invariance across the sharded curve: every point must
  // reproduce the sequential point's digest, event count and request
  // accounting bit-for-bit -- thread count buys wall-clock time only.
  {
    const PresetResult& base = results[curve_index.front()];
    for (const std::size_t i : curve_index) {
      const PresetResult& point = results[i];
      if (point.digest != base.digest) {
        fail("sharded curve digest varies with thread count");
      }
      if (point.events_fired != base.events_fired ||
          point.completed != base.completed ||
          point.windows != base.windows ||
          point.cross_shard_messages != base.cross_shard_messages) {
        fail("sharded curve event accounting varies with thread count");
      }
      // Wall-clock gate, full runs only: CI gates on the counters above.
      if (!smoke && point.threads <= std::thread::hardware_concurrency() &&
          point.speedup_vs_one_thread < 1.0) {
        fail("a sharded point with threads <= hardware_concurrency ran "
             "slower than threads=1");
      }
    }
  }
  std::printf("  self-checks: OK\n");

  if (rss_gate_mib > 0.0) {
    const double rss = peak_rss_mib();
    if (rss > rss_gate_mib) {
      std::fprintf(stderr,
                   "scale_throughput: RSS GATE FAILED: peak %.1f MiB > "
                   "gate %.1f MiB\n",
                   rss, rss_gate_mib);
      return 1;
    }
    std::printf("  rss gate: %.1f MiB <= %.1f MiB OK\n", rss, rss_gate_mib);
  }

  common::JsonArray presets;
  presets.reserve(results.size());
  for (const PresetResult& r : results) presets.push_back(to_json(r));
  if (!bench::write_json_doc(
          json_path, "xanadu.bench.scale/v4",
          "4-node linear chain, 5 ms exec, Poisson arrivals (20 ms mean "
          "gap), seed 42; sharded curve: same volume over 4 tenant shards + "
          "fleet shard, threads 1/2/4/8; queue hot path: window-256 "
          "self-scheduling churn, 50% late-cancelled decoys",
          std::move(presets),
          {{"hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency())}})) {
    return 1;
  }
  return 0;
}
