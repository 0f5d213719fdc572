// Repository benchmark program: replays one named workload through the public
// `workload` runners and prints its end-to-end metrics (tracing off) or its
// per-layer metrics (a separate traced run), then one JSON result line.
//
//   perfbench --workload chain_jit|mix_spec|sharded_jit --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Both modes replay the workload once at full volume with tracing off, for
// the modelled metrics, then replay a share of its volume (timing_scale)
// repeatedly for S seconds, after one warm-up.  On a shared host the core
// speed a process gets drifts within seconds, so every timed replay and every
// batch of set-ups is followed by the fixed calibration loop
// (calibration.hpp), on as many threads as the replay uses, and its time is
// rescaled to the reference host's speed; the replay rate and the set-up time
// are medians of the rescaled times.  The modelled metrics come from the
// virtual-time outcome and must repeat exactly.  With
// --trace 1 one more full replay runs with retained results, the allocation
// counter and in-memory spans, and the per-layer metrics are printed instead.
// Output checks (request conservation, pinned digests, refold digest,
// thread-count invariance, C_D histogram range, steady state) make the run
// exit 1 with "correct": false when any fails.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "calibration.hpp"
#include "layers.hpp"
#include "metrics/trace.hpp"
#include "scenario.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

/// Seed whose replay digests are pinned below.
constexpr std::uint64_t kDefaultSeed = 42;

/// Trace digests of each workload at kDefaultSeed: at kCanaryScale of its
/// volume (replayed, untimed, by every run) and at full volume (checked when
/// the run's own seed is kDefaultSeed).  chain_jit replays the xanadu-jit
/// presets of BENCH_scale.json (same recipe), so its pins are that file's
/// xanadu-jit_10k and xanadu-jit_100k digests.
constexpr double kCanaryScale = 0.1;
struct Pins {
  const char* canary;
  const char* full;
};
Pins pinned_digests(Workload workload) {
  switch (workload) {
    case Workload::ChainJit: return {"3297f4b28f8b959b", "ebce3b17b6803d55"};
    case Workload::MixSpec: return {"8c589b9510e621d8", "e59696b1834e8bc2"};
    case Workload::ShardedJit: return {"2d53f574bf90c5db", "0fc06a8952fc6984"};
  }
  return {"", ""};
}

constexpr int kMinMeasuredReplays = 3;
/// Set-ups timed before any replay, in batches that each end with a
/// calibration loop.  Set-ups after a replay run on its used heap and evicted
/// caches and take 1.5-2x as long, so mixing the two would tie the median to
/// the number of replays that fit in a run.  The loop keeps its state in
/// registers and disturbs neither.
constexpr int kSetupBatches = 9;
constexpr int kSetupsPerBatch = 11;

struct Args {
  Workload workload = Workload::ChainJit;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "chain_jit|mix_spec|sharded_jit --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) usage("unknown workload");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Failed output checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
      failures.push_back(what);
    }
  }
};

/// Every tenant lane conserves requests and the lanes add up to the run.
void check_conservation(const Scenario& scenario, const Replay& replay,
                        Checks& checks) {
  const workload::MixedOutcome& mixed = replay.mixed;
  checks.require(mixed.per_source.size() == scenario.tenants(),
                 "one outcome lane per tenant");
  std::size_t total = 0;
  for (std::size_t lane = 0; lane < mixed.per_source.size(); ++lane) {
    const workload::RunOutcome& o = mixed.per_source[lane];
    const std::size_t scheduled =
        scenario.workload == Workload::ShardedJit
            ? scenario.shards[lane].schedule.size()
            : scenario.mix.sources()[lane].schedule.size();
    checks.require(scheduled > 0, "tenant " + mixed.source_names[lane] +
                                      " received traffic");
    checks.require(o.completed_count() + o.failed_count() == scheduled,
                   "tenant " + mixed.source_names[lane] +
                       ": completed + failed == scheduled");
    total += o.total_count();
  }
  checks.require(total == scenario.requests(), "lanes add up to the run");
  checks.require(mixed.aggregate.completed_count() +
                         mixed.aggregate.failed_count() ==
                     scenario.requests(),
                 "aggregate: completed + failed == scheduled");
}

/// One untimed replay at the default seed and canary volume, against its
/// pinned digest.
void check_pinned_digest(Workload workload, Checks& checks) {
  Scenario scenario = set_up(workload, kDefaultSeed);
  make_arrivals(scenario, kDefaultSeed, kCanaryScale);
  const Replay r =
      replay(scenario, run_options(false, replay_threads(workload)));
  check_conservation(scenario, r, checks);
  const std::string digest = metrics::digest_hex(r.mixed.aggregate.trace_digest);
  const std::string pin = pinned_digests(workload).canary;
  std::printf("  pinned digest (seed %llu, %.0f%% volume): %s (pinned %s)\n",
              static_cast<unsigned long long>(kDefaultSeed), kCanaryScale * 100,
              digest.c_str(), pin.c_str());
  checks.require(digest == pin, std::string{"pinned digest of "} +
                                    workload_name(workload));
}

void check_modelled(const Modelled& m, Checks& checks) {
  checks.require(m.cd_samples > 0, "C_D histogram has samples");
  checks.require(m.cd_p50.in_range && m.cd_p99.in_range,
                 "C_D p50/p99 fall inside the histogram range");
  checks.require(m.cd_p99.beyond >= 10, "at least 10 C_D samples beyond p99");
  checks.require(m.failed == 0, "fault-free workload has no failed requests");
}

/// One calibration loop on each of `threads` threads at once, each checked
/// against its fixed result; returns the slowest loop's time.
double calibrate(Checks& checks, unsigned threads) {
  std::vector<double> seconds(threads);
  std::vector<std::uint64_t> checksums(threads);
  {
    std::vector<std::jthread> others;
    for (unsigned t = 1; t < threads; ++t) {
      others.emplace_back([&seconds, &checksums, t] {
        seconds[t] = calibration_loop_s(checksums[t]);
      });
    }
    seconds[0] = calibration_loop_s(checksums[0]);
  }  // Joins the other loops.
  for (const std::uint64_t checksum : checksums) {
    checks.require(checksum == kCalibrationChecksum,
                   "calibration loop computes its fixed result");
  }
  return *std::max_element(seconds.begin(), seconds.end());
}

/// "name": {"value": v, "unit": u} pairs for the result line.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-40s %18.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    json_ += buf;
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

/// What the untraced replays of a run measured.
struct Untraced {
  /// Each set-up's time at the reference host's speed.
  std::vector<double> setup_s;
  /// Modelled metrics, digest, request count and wall time of the
  /// full-volume replay; the traced replay must repeat the first two.
  Modelled modelled;
  std::uint64_t digest = 0;
  std::size_t requests = 0;
  double full_wall_s = 0.0;
  /// Requests and simulator events of one timed (timing_scale) replay, and
  /// the wall time of each measured one (the warm-up excluded).
  std::size_t timed_requests = 0;
  std::uint64_t timed_events = 0;
  std::vector<double> wall;
  /// Time of the calibration loop after each measured replay.
  std::vector<double> calibration;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The wall time of a timed replay: the median of the measured replays,
  /// each scaled to the reference host's speed by the loop timed right after
  /// it.
  [[nodiscard]] double timed_wall() const {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      scaled.push_back(at_reference_speed(wall[i], calibration[i]));
    }
    return median(std::move(scaled));
  }
  [[nodiscard]] double requests_per_s() const {
    return static_cast<double>(timed_requests) / timed_wall();
  }
};

/// Times the set-ups, then one full-volume replay, then one
/// warm-up and at least kMinMeasuredReplays measured replays at
/// timing_scale volume, until `args.seconds` have passed.
Untraced run_untraced(const Args& args, Checks& checks) {
  const Workload w = args.workload;
  const workload::RunOptions options = run_options(false, replay_threads(w));
  Untraced u;
  for (int batch = 0; batch < kSetupBatches; ++batch) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Scenario scenario = set_up(w, args.seed);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    const double calibration_s = calibrate(checks, 1);
    for (const double s : setup_s) {
      u.setup_s.push_back(at_reference_speed(s, calibration_s));
    }
  }
  {
    Scenario scenario = set_up(w, args.seed);
    make_arrivals(scenario, args.seed);
    const Replay r = replay(scenario, options);
    check_conservation(scenario, r, checks);
    u.modelled = modelled(r);
    check_modelled(u.modelled, checks);
    u.digest = r.mixed.aggregate.trace_digest;
    u.requests = scenario.requests();
    u.full_wall_s = r.wall_s;
    u.attempted += u.requests;
    u.failed += r.mixed.aggregate.failed_count();
    if (args.seed == kDefaultSeed) {
      checks.require(metrics::digest_hex(u.digest) == pinned_digests(w).full,
                     std::string{"pinned full-volume digest of "} +
                         workload_name(w));
    }
  }
  Modelled timed_modelled;
  std::uint64_t timed_digest = 0;
  Clock::time_point measure_start{};
  for (int rep = 0;; ++rep) {
    const bool warmup = rep == 0;
    if (rep == 1) measure_start = Clock::now();
    if (rep > kMinMeasuredReplays &&
        seconds_between(measure_start, Clock::now()) >= args.seconds) {
      break;
    }
    Scenario scenario = set_up(w, args.seed);
    make_arrivals(scenario, args.seed, timing_scale(w));
    const Counters before = snapshot(scenario);
    const Replay r = replay(scenario, options);
    u.attempted += scenario.requests();
    u.failed += r.mixed.aggregate.failed_count();
    const Modelled m = modelled(r);
    if (warmup) {
      check_conservation(scenario, r, checks);
      timed_modelled = m;
      timed_digest = r.mixed.aggregate.trace_digest;
      u.timed_requests = scenario.requests();
      u.timed_events = w == Workload::ShardedJit
                           ? r.sharded_events
                           : snapshot(scenario).events_fired - before.events_fired;
    } else {
      checks.require(r.mixed.aggregate.trace_digest == timed_digest,
                     "replays of one seed give one digest");
      checks.require(m == timed_modelled, "modelled metrics repeat exactly");
      u.wall.push_back(r.wall_s);
    }
    // On every replay thread: a replay that meets at barriers runs at the
    // speed of its slowest core.
    const double calibration_s = calibrate(checks, replay_threads(w));
    if (!warmup) u.calibration.push_back(calibration_s);
  }
  return u;
}

void print_untraced(const Untraced& u) {
  std::printf("  %zu requests at full volume (%.4f s), digest %s\n", u.requests,
              u.full_wall_s, metrics::digest_hex(u.digest).c_str());
  std::printf("  %zu requests and %llu events per timed replay, %zu measured "
              "replays\n",
              u.timed_requests, static_cast<unsigned long long>(u.timed_events),
              u.wall.size());
  std::printf("  set-up s at reference speed: min %.6f median %.6f max %.6f "
              "over %zu\n",
              *std::min_element(u.setup_s.begin(), u.setup_s.end()),
              median(u.setup_s),
              *std::max_element(u.setup_s.begin(), u.setup_s.end()),
              u.setup_s.size());
  std::printf("  replay wall s:");
  for (const double s : u.wall) std::printf(" %.4f", s);
  std::printf("\n  calibration loop s:");
  for (const double s : u.calibration) std::printf(" %.4f", s);
  std::printf("\n  median replay %.0f req/s on this host, host speed %.4f x "
              "reference (median loop)\n",
              static_cast<double>(u.timed_requests) / median(u.wall),
              kCalibrationReferenceS / median(u.calibration));
  const Modelled& m = u.modelled;
  std::printf("  C_D samples %llu, beyond p99 %llu, max %.1f ms, failed_frac %.6f\n",
              static_cast<unsigned long long>(m.cd_samples),
              static_cast<unsigned long long>(m.cd_p99.beyond), m.cd_max_ms,
              m.failed_frac());
}

void add_end_to_end(const Untraced& u, MetricList& out) {
  const Modelled& m = u.modelled;
  out.add("requests_per_s", u.requests_per_s(), "req/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.add("setup_s", median(u.setup_s), "s");
  out.add("cd_mean_ms", m.cd_mean_ms, "ms");
  out.add("cd_p50_ms", m.cd_p50.value_ms, "ms");
  out.add("cd_p99_ms", m.cd_p99.value_ms, "ms");
  out.add("latency_mean_ms", m.latency_mean_ms, "ms");
  out.add("cold_starts_per_request", m.cold_starts_per_request, "count");
  out.add("cr_cpu_s_per_request", m.cr_cpu_s_per_request, "core-s");
  out.add("cr_mem_mbs_per_request", m.cr_mem_mbs_per_request, "MB-s");
}

/// The traced run: one more set-up and replay with retained results, spans
/// and allocation counting, then the per-layer metrics.
void run_traced(const Args& args, Untraced& u, Checks& checks, MetricList& out) {
  const Workload w = args.workload;
  const unsigned threads = replay_threads(w);
  SpanLog spans;
  const int setup_span = spans.begin("setup");
  Scenario scenario = set_up(w, args.seed, &spans, setup_span);
  spans.end(setup_span);
  make_arrivals(scenario, args.seed);
  const Counters before = snapshot(scenario);
  const int replay_span = spans.begin("workload.replay");
  AllocCounter::start();
  const Replay r = replay(scenario, run_options(true, threads));
  const AllocCount allocs = AllocCounter::stop();
  spans.end(replay_span);
  const Counters after = snapshot(scenario);
  u.attempted += u.requests;
  u.failed += r.mixed.aggregate.failed_count();
  check_conservation(scenario, r, checks);
  checks.require(r.mixed.aggregate.trace_digest == u.digest,
                 "retaining results leaves the digest unchanged");
  checks.require(modelled(r) == u.modelled,
                 "retaining results leaves the modelled metrics unchanged");

  const int refold_span = spans.begin("metrics.refold");
  const std::uint64_t refold = refold_digest(scenario, r);
  spans.end(refold_span);
  checks.require(refold == r.mixed.aggregate.trace_digest,
                 "streamed digest equals the standalone refold digest");
  const std::uint64_t csv_bytes = trace_bytes(scenario, r);

  for (const SteadyState& s : steady_state(scenario, r)) {
    std::printf("  steady state %-16s C_D middle tenths %10.3f ms, last tenth "
                "%10.3f ms, fully cold %10.3f ms\n",
                s.lane.c_str(), s.middle_ms, s.last_ms, s.cold_ms);
    checks.require(!s.overloaded(), "modelled platform serving " + s.lane +
                                        " is not overloaded");
  }

  // Thread speedup: the same shards replayed on one thread.
  double thread_speedup = 1.0;
  if (w == Workload::ShardedJit) {
    Scenario t1 = set_up(w, args.seed);
    make_arrivals(t1, args.seed);
    const int t1_span = spans.begin("workload.replay_t1");
    const Replay r1 = replay(t1, run_options(false, 1));
    spans.end(t1_span);
    u.attempted += u.requests;
    u.failed += r1.mixed.aggregate.failed_count();
    checks.require(r1.mixed.aggregate.trace_digest == r.mixed.aggregate.trace_digest,
                   "1-thread digest equals the threads digest");
    thread_speedup = r1.wall_s / u.full_wall_s;
  }

  const CoreTiming core = time_core(scenario, w != Workload::MixSpec, spans);

  const double n = static_cast<double>(u.requests);
  const auto per_request = [n](std::uint64_t count) {
    return static_cast<double>(count) / n;
  };
  const std::uint64_t events = w == Workload::ShardedJit
                                   ? r.sharded_events
                                   : after.events_fired - before.events_fired;
  const double replay_s = spans.seconds(replay_span);
  const metrics::ResourceCost cost =
      metrics::resource_cost(r.mixed.aggregate.ledger_delta);
  out.add("sim.events_per_request", per_request(events), "count");
  out.add("sim.ns_per_event",
          u.timed_wall() * 1e9 / static_cast<double>(u.timed_events), "ns");
  out.add("sim.slab_high_water", static_cast<double>(after.slab_capacity), "count");
  out.add("sim.windows_per_request", per_request(r.windows), "count");
  out.add("sim.events_per_window",
          r.windows == 0 ? 0.0
                         : static_cast<double>(events) /
                               static_cast<double>(r.windows),
          "count");
  out.add("sim.cross_shard_msgs_per_request", per_request(r.cross_shard_messages),
          "count");
  out.add("sim.thread_speedup", thread_speedup, "ratio");
  out.add("platform.bus_published_per_request",
          per_request(after.bus_published - before.bus_published), "count");
  out.add("platform.bus_delivered_per_request",
          per_request(after.bus_delivered - before.bus_delivered), "count");
  out.add("platform.provisions_per_request",
          per_request(after.provisions_started - before.provisions_started),
          "count");
  out.add("cluster.workers_provisioned_per_request",
          per_request(cost.workers_provisioned), "count");
  out.add("cluster.wasted_fraction",
          cost.workers_provisioned == 0
              ? 0.0
              : static_cast<double>(cost.workers_wasted) /
                    static_cast<double>(cost.workers_provisioned),
          "ratio");
  out.add("core.missed_nodes_per_request", r.mixed.aggregate.mean_missed_nodes(),
          "count");
  out.add("core.mlp_us", core.mlp_us, "us");
  out.add("core.plan_us", core.plan_us, "us");
  out.add("metrics.ns_per_request", spans.seconds(refold_span) * 1e9 / n, "ns");
  out.add("metrics.bytes_per_request", per_request(csv_bytes), "bytes");
  out.add("common.allocs_per_request", per_request(allocs.allocations), "count");
  out.add("common.alloc_bytes_per_request", per_request(allocs.bytes), "bytes");
  out.add("workload.replay_s", replay_s, "s");
  out.add("workload.tracing_overhead_frac",
          (replay_s - u.full_wall_s) / u.full_wall_s, "ratio");

  if (!args.spans_path.empty()) {
    char header[256];
    std::snprintf(header, sizeof header,
                  "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %u, "
                  "\"hardware_concurrency\": %u, \"requests\": %zu}",
                  workload_name(w), static_cast<unsigned long long>(args.seed),
                  threads, std::thread::hardware_concurrency(), u.requests);
    checks.require(spans.write_jsonl(args.spans_path, header),
                   "span log written to " + args.spans_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%u "
              "hardware_concurrency=%u\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, replay_threads(args.workload),
              std::thread::hardware_concurrency());
  Checks checks;
  check_pinned_digest(args.workload, checks);
  Untraced untraced = run_untraced(args, checks);
  print_untraced(untraced);

  MetricList metrics;
  if (args.trace) {
    run_traced(args, untraced, checks, metrics);
  } else {
    add_end_to_end(untraced, metrics);
  }

  const bool correct = checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(untraced.attempted),
              static_cast<unsigned long long>(untraced.failed),
              metrics.json().c_str());
  return correct ? 0 : 1;
}
