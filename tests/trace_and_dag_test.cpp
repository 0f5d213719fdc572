// Tests for the trace CSV exporter, the general random-DAG generator, and
// the worker-reuse-on-miss extension.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "workflow/builders.hpp"
#include "workflow/random_dag.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;
using sim::Duration;

// ----------------------------------------------------------------- trace --

TEST(Trace, CsvContainsOneRowPerNode) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  DispatchManager manager{options};
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(300);
  const workflow::WorkflowDag dag = workflow::linear_chain(3, build);
  const auto wf = manager.deploy(dag);
  const auto result = manager.invoke(wf);

  const std::string csv = metrics::trace_csv(result, dag);
  std::istringstream lines{csv};
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_EQ(rows, 3);
  EXPECT_NE(csv.find("f1"), std::string::npos);
  EXPECT_NE(csv.find("completed"), std::string::npos);
  // Chained nodes carry their parent in the invoked_by column.
  EXPECT_NE(csv.find(",f1\n"), std::string::npos);
}

TEST(Trace, SkippedNodesHaveEmptyTimings) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  DispatchManager manager{options};
  workflow::XorCastOptions xor_opts;
  xor_opts.levels = 1;
  xor_opts.fan = 2;
  const workflow::WorkflowDag dag = workflow::xor_cast_dag(xor_opts);
  const auto wf = manager.deploy(dag);
  const auto result = manager.invoke(wf);

  const std::string csv = metrics::trace_csv(result, dag);
  EXPECT_NE(csv.find("skipped,,,,"), std::string::npos);
}

TEST(Trace, MultiRequestCsvHasHeaderOnce) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduCold;
  DispatchManager manager{options};
  const workflow::WorkflowDag dag = workflow::linear_chain(2);
  const auto wf = manager.deploy(dag);
  std::vector<platform::RequestResult> results;
  results.push_back(manager.invoke(wf));
  results.push_back(manager.invoke(wf));
  const std::string csv = metrics::trace_csv(results, dag);
  std::size_t headers = 0, pos = 0;
  while ((pos = csv.find("request,node,function", pos)) != std::string::npos) {
    ++headers;
    ++pos;
  }
  EXPECT_EQ(headers, 1u);
}

// The ostringstream renderer the to_chars one replaced, kept verbatim as the
// byte-for-byte reference: the pinned digests hash exactly this text.
const char* reference_status(platform::NodeStatus status) {
  switch (status) {
    case platform::NodeStatus::Pending: return "pending";
    case platform::NodeStatus::Triggered: return "triggered";
    case platform::NodeStatus::Executing: return "executing";
    case platform::NodeStatus::Completed: return "completed";
    case platform::NodeStatus::Skipped: return "skipped";
  }
  return "unknown";
}

std::string reference_rows(const platform::RequestResult& result,
                           const workflow::WorkflowDag& dag) {
  auto name_of = [&dag](std::size_t node) -> const std::string& {
    return dag.node(common::NodeId{node}).fn.name;
  };
  std::ostringstream out;
  for (std::size_t i = 0; i < result.node_records.size(); ++i) {
    const platform::NodeRecord& record = result.node_records[i];
    out << result.id.value() << ',' << i << ',' << name_of(i) << ','
        << reference_status(record.status) << ',';
    const bool ran = record.status == platform::NodeStatus::Completed;
    if (ran) {
      out << record.trigger_time.millis() << ',' << record.exec_start.millis()
          << ',' << record.exec_end.millis() << ','
          << record.exec_duration.millis();
    } else {
      out << ",,,";
    }
    out << ',' << (record.cold ? 1 : 0) << ','
        << record.provision_wait.millis() << ',' << record.retries << ','
        << (result.failed ? 1 : 0) << ',';
    for (std::size_t p = 0; p < record.invoked_by.size(); ++p) {
      if (p > 0) out << ';';
      out << name_of(record.invoked_by[p].value());
    }
    out << '\n';
  }
  return out.str();
}

// Microsecond values spread over every rendering regime: sub-millisecond,
// ordinary, the 999999.5 ms -> "1e+06" rounding boundary, past 1e7 ms, up
// to ~1e10 ms, and negative.  Halfway values sit exactly between two 6-digit
// renderings: 1,234,565,000 and 1,234,575,000 us are exact binary ties
// (round half to even), while 1,234,565 and 12,345,650 us are not, and the
// double nearest them falls on one side (up to "1234.57", down to
// "12345.6").
std::int64_t random_micros(common::Rng& rng) {
  static constexpr std::int64_t kEdges[] = {
      0,           1,             999,           1000,
      999'999'499, 999'999'500,   1'000'000'000, 9'999'995'000,
      10'000'000'000, 1'234'565,  12'345'650,    1'234'565'000,
      1'234'575'000};
  switch (rng.uniform_int(6)) {
    case 0:
      return kEdges[rng.uniform_int(std::size(kEdges))];
    case 1:
      return static_cast<std::int64_t>(rng.uniform_int(2'000'000));
    case 2:  // Around the 1e6 ms boundary.
      return 999'000'000 +
             static_cast<std::int64_t>(rng.uniform_int(2'000'000));
    case 3: {  // Halfway between two 6-digit renderings, 7 to 13 digits.
      const std::int64_t unit = static_cast<std::int64_t>(
          std::pow(10.0, static_cast<double>(1 + rng.uniform_int(7))));
      const auto kept =
          static_cast<std::int64_t>(100'000 + rng.uniform_int(900'000));
      return kept * unit + unit / 2;
    }
    case 4:  // Any of the above, negated.
      return -random_micros(rng);
    default:  // Log-uniform up to 1e13 us.
      return static_cast<std::int64_t>(std::pow(10.0, rng.uniform(0.0, 13.0)));
  }
}

TEST(Trace, ToCharsRendererMatchesTheOstreamReference) {
  const workflow::WorkflowDag dag = workflow::linear_chain(6);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    names.push_back(dag.node(common::NodeId{i}).fn.name);
  }
  common::Rng rng{20201207};
  std::size_t rows = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    platform::RequestResult result;
    result.id = common::RequestId{rng.uniform_int(1'000'000'000)};
    result.failed = rng.bernoulli(0.2);
    result.node_records.resize(1 + rng.uniform_int(dag.node_count()));
    for (std::size_t i = 0; i < result.node_records.size(); ++i) {
      platform::NodeRecord& record = result.node_records[i];
      record.status = static_cast<platform::NodeStatus>(rng.uniform_int(5));
      record.trigger_time = sim::TimePoint{random_micros(rng)};
      record.exec_start = sim::TimePoint{random_micros(rng)};
      record.exec_end = sim::TimePoint{random_micros(rng)};
      record.exec_duration = Duration::from_micros(random_micros(rng));
      record.provision_wait = Duration::from_micros(random_micros(rng));
      record.cold = rng.bernoulli(0.5);
      record.retries = rng.uniform_int(4);
      for (std::size_t p = 0; p < i; ++p) {  // Several parents at times.
        if (rng.bernoulli(0.4)) record.invoked_by.push_back(common::NodeId{p});
      }
    }
    const std::string expected = reference_rows(result, dag);
    ASSERT_EQ(metrics::trace_csv(result, dag), expected) << "trial " << trial;
    std::string streamed = "prefix\n";
    metrics::append_trace_csv(streamed, result, names);
    ASSERT_EQ(streamed, "prefix\n" + expected) << "trial " << trial;
    rows += result.node_records.size();
  }
  EXPECT_GT(rows, 10'000u);
}

// Compares write_millis() with std::to_chars on the double it replaces,
// reporting the first few mismatches.
class MillisSweep {
 public:
  void check(std::int64_t micros) {
    char expected[32];
    char actual[metrics::kMillisBufferSize];
    const char* expected_end =
        std::to_chars(expected, expected + sizeof expected,
                      static_cast<double>(micros) / 1e3,
                      std::chars_format::general, 6)
            .ptr;
    const char* actual_end = metrics::write_millis(actual, micros);
    ++checked_;
    const std::string_view want{
        expected, static_cast<std::size_t>(expected_end - expected)};
    const std::string_view got{
        actual, static_cast<std::size_t>(actual_end - actual)};
    if (want != got && ++mismatches_ <= 10) {
      ADD_FAILURE() << micros << " us: wrote \"" << got
                    << "\", std::to_chars writes \"" << want << '"';
    }
  }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

TEST(Trace, MillisRendererEqualsToCharsOnEveryInputSet) {
  MillisSweep sweep;
  // Every value in [-2,000,000, 2,000,000] us: each rendering regime below
  // 2e3 ms, including the first decimal ties at 7 digits.
  for (std::int64_t us = -2'000'000; us <= 2'000'000; ++us) sweep.check(us);
  common::Rng rng{20261017};
  // Halfway values and their neighbours for every digit count from 7 to 16:
  // the digits past the sixth are a 5 and then zeros.
  std::int64_t unit = 10;
  for (int digits = 7; digits <= 16; ++digits, unit *= 10) {
    for (int i = 0; i < 10'000; ++i) {
      const auto kept =
          static_cast<std::int64_t>(100'000 + rng.uniform_int(900'000));
      const std::int64_t tie = kept * unit + unit / 2;
      for (const std::int64_t delta : {-1, 0, 1}) sweep.check(tie + delta);
    }
  }
  // Every power of ten, and three either side of it, both signs.
  for (std::int64_t power = 1;; power *= 10) {
    for (std::int64_t delta = -3; delta <= 3; ++delta) {
      sweep.check(power + delta);
      sweep.check(-(power + delta));
    }
    if (power > std::numeric_limits<std::int64_t>::max() / 10) break;
  }
  sweep.check(std::numeric_limits<std::int64_t>::min());
  sweep.check(std::numeric_limits<std::int64_t>::max());
  // Log-uniform magnitudes up to 1e18 us, either sign.
  for (int i = 0; i < 1'000'000; ++i) {
    const auto magnitude =
        static_cast<std::int64_t>(std::pow(10.0, rng.uniform(0.0, 18.0)));
    sweep.check(rng.bernoulli(0.5) ? -magnitude : magnitude);
  }
  EXPECT_EQ(sweep.mismatches(), 0u);
  EXPECT_GT(sweep.checked(), 5'300'000u);
}

// ------------------------------------------------------------ random dag --

class RandomDagProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagProperty, StructuralInvariants) {
  common::Rng rng{GetParam()};
  for (const std::size_t nodes : {1u, 4u, 8u, 16u, 32u}) {
    workflow::RandomDagOptions opts;
    opts.node_count = nodes;
    opts.levels = 4;
    const workflow::WorkflowDag dag = workflow::random_dag(opts, rng);
    EXPECT_NO_THROW(dag.validate());
    EXPECT_EQ(dag.node_count(), nodes);
    EXPECT_GE(dag.roots().size(), 1u);
    // Every XOR node's probabilities sum to ~1; every non-XOR edge is 1.
    for (const auto& node : dag.nodes()) {
      if (node.dispatch == workflow::DispatchMode::Xor &&
          node.children.size() > 1) {
        double total = 0;
        for (const auto& e : node.children) total += e.probability;
        EXPECT_NEAR(total, 1.0, 1e-9);
      } else {
        for (const auto& e : node.children) {
          EXPECT_DOUBLE_EQ(e.probability, 1.0);
        }
      }
    }
  }
}

TEST_P(RandomDagProperty, ExecutesOnEveryXanaduMode) {
  // End-to-end robustness: arbitrary m:n DAGs run to completion under all
  // speculation modes, with consistent executed/skipped accounting.
  common::Rng rng{GetParam() * 7919};
  workflow::RandomDagOptions opts;
  opts.node_count = 12;
  opts.levels = 5;
  opts.base.exec_time = Duration::from_millis(400);
  const workflow::WorkflowDag dag = workflow::random_dag(opts, rng);

  for (const PlatformKind kind :
       {PlatformKind::XanaduCold, PlatformKind::XanaduSpeculative,
        PlatformKind::XanaduJit}) {
    DispatchManagerOptions options;
    options.kind = kind;
    options.seed = GetParam();
    DispatchManager manager{options};
    const auto wf = manager.deploy(dag);
    for (int i = 0; i < 3; ++i) {
      manager.force_cold_start();
      const auto result = manager.invoke(wf);
      EXPECT_EQ(result.executed_nodes + result.skipped_nodes, dag.node_count());
      EXPECT_GE(result.overhead, Duration::zero());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty,
                         ::testing::Values(3u, 17u, 29u, 61u, 101u));

TEST(RandomDag, RejectsBadOptions) {
  common::Rng rng{1};
  workflow::RandomDagOptions opts;
  opts.node_count = 0;
  EXPECT_THROW(workflow::random_dag(opts, rng), std::invalid_argument);
  opts = {};
  opts.levels = 0;
  EXPECT_THROW(workflow::random_dag(opts, rng), std::invalid_argument);
  opts = {};
  opts.xor_probability = 1.5;
  EXPECT_THROW(workflow::random_dag(opts, rng), std::invalid_argument);
  opts = {};
  opts.min_bias = 0.2;
  EXPECT_THROW(workflow::random_dag(opts, rng), std::invalid_argument);
}

// -------------------------------------------------------- worker reuse ----

TEST(WorkerReuse, RebindMovesWarmWorkerBetweenCompatibleFunctions) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{3}};
  platform::PlatformCalibration calib;
  calib.overhead_jitter = Duration::zero();
  calib.worker_handoff = Duration::zero();
  calib.rebind_latency = Duration::from_millis(100);
  platform::PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{5}};

  // Two independent single-node workflows with identical specs.
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(200);
  const auto wf_a = engine.register_workflow(workflow::linear_chain(1, build));
  const auto wf_b = engine.register_workflow(workflow::linear_chain(1, build));
  const auto fn_a = engine.function_id(wf_a, common::NodeId{0});
  const auto fn_b = engine.function_id(wf_b, common::NodeId{0});

  // Warm fn_a's pool.
  (void)engine.run_one(wf_a);
  ASSERT_EQ(engine.warm_count(fn_a), 1u);
  ASSERT_EQ(engine.warm_count(fn_b), 0u);

  EXPECT_TRUE(engine.rebind_warm_worker(fn_a, fn_b));
  EXPECT_EQ(engine.warm_count(fn_a), 0u);
  // The rebind takes 100 ms of code reload before joining fn_b's pool.
  EXPECT_EQ(engine.warm_count(fn_b), 0u);
  sim.run_until(sim.now() + Duration::from_millis(150));
  EXPECT_EQ(engine.warm_count(fn_b), 1u);

  // A request to fn_b is now warm without provisioning a new worker.
  const auto result = engine.run_one(wf_b);
  EXPECT_EQ(result.cold_starts, 0u);
  EXPECT_EQ(result.workers_provisioned, 0u);
}

TEST(WorkerReuse, FlushTearsDownMidRebindWorkers) {
  // Regression: a worker mid-rebind belongs to no warm pool (popped at rebind
  // start), so the pre-fix flush_all() could not see it.  It survived the
  // flush, re-parked itself into the target pool when the rebind latency
  // elapsed, re-armed a keep-alive timer, and kept accruing idle ledger cost
  // -- breaking "force cold conditions" harnesses and C_R comparisons.
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{3}};
  platform::PlatformCalibration calib;
  calib.overhead_jitter = Duration::zero();
  calib.worker_handoff = Duration::zero();
  calib.rebind_latency = Duration::from_millis(100);
  calib.keep_alive = Duration::from_seconds(1);
  platform::PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{5}};

  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(200);
  const auto wf_a = engine.register_workflow(workflow::linear_chain(1, build));
  const auto wf_b = engine.register_workflow(workflow::linear_chain(1, build));
  const auto fn_a = engine.function_id(wf_a, common::NodeId{0});
  const auto fn_b = engine.function_id(wf_b, common::NodeId{0});

  (void)engine.run_one(wf_a);
  ASSERT_EQ(engine.warm_count(fn_a), 1u);
  ASSERT_TRUE(engine.rebind_warm_worker(fn_a, fn_b));
  // Mid-rebind: not pooled anywhere, counted as provisioning coverage.
  ASSERT_EQ(engine.warm_count(fn_a), 0u);
  ASSERT_EQ(engine.warm_count(fn_b), 0u);
  ASSERT_TRUE(engine.provisioning_in_flight(fn_b));
  ASSERT_EQ(cluster.live_worker_count(), 1u);

  engine.flush_all_warm_workers();

  // The sandbox is gone NOW, with its rebind-completion event cancelled and
  // the inbound-rebind coverage released.
  EXPECT_EQ(cluster.live_worker_count(), 0u);
  EXPECT_EQ(engine.keep_alive_event_count(), 0u);
  EXPECT_FALSE(engine.provisioning_in_flight(fn_b));

  // Drain past the rebind latency and the keep-alive window: the worker must
  // not resurrect into fn_b's pool, no timer may re-arm, and the ledger must
  // not accrue further idle cost for it.
  const cluster::ResourceLedger before = cluster.ledger();
  sim.run_until(sim.now() + Duration::from_seconds(3));
  EXPECT_EQ(engine.warm_count(fn_b), 0u);
  EXPECT_EQ(engine.keep_alive_event_count(), 0u);
  EXPECT_EQ(cluster.live_worker_count(), 0u);
  const cluster::ResourceLedger delta = cluster.ledger() - before;
  EXPECT_DOUBLE_EQ(delta.idle_cpu_core_seconds, 0.0);
  EXPECT_DOUBLE_EQ(delta.idle_memory_mb_seconds, 0.0);
}

TEST(WorkerReuse, RebindRefusesIncompatibleArchitectures) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{3}};
  platform::PlatformCalibration calib;
  platform::PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{5}};

  workflow::BuildOptions container;
  container.exec_time = Duration::from_millis(200);
  workflow::BuildOptions isolate = container;
  isolate.sandbox = workflow::SandboxKind::Isolate;
  workflow::BuildOptions big = container;
  big.memory_mb = 2048;

  const auto wf_a = engine.register_workflow(workflow::linear_chain(1, container));
  const auto wf_b = engine.register_workflow(workflow::linear_chain(1, isolate));
  const auto wf_c = engine.register_workflow(workflow::linear_chain(1, big));
  const auto fn_a = engine.function_id(wf_a, common::NodeId{0});
  const auto fn_b = engine.function_id(wf_b, common::NodeId{0});
  const auto fn_c = engine.function_id(wf_c, common::NodeId{0});

  (void)engine.run_one(wf_a);
  ASSERT_EQ(engine.warm_count(fn_a), 1u);
  EXPECT_FALSE(engine.rebind_warm_worker(fn_a, fn_b));  // Kind differs.
  EXPECT_FALSE(engine.rebind_warm_worker(fn_a, fn_c));  // Memory differs.
  EXPECT_EQ(engine.warm_count(fn_a), 1u);               // Untouched.
  EXPECT_FALSE(engine.rebind_warm_worker(fn_b, fn_a));  // Nothing warm.
}

TEST(WorkerReuse, PolicyReusesMisdeployedSandboxOnMiss) {
  // An XOR with two same-architecture deep branches.  With reuse + replan
  // enabled, a miss recycles the wrong branch's sandboxes into the taken
  // branch, provisioning fewer fresh workers than the discard policy.
  workflow::WorkflowDag dag{"reuse"};
  workflow::FunctionSpec spec;
  spec.exec_time = Duration::from_millis(4000);
  spec.name = "root";
  const auto root = dag.add_node(spec, workflow::DispatchMode::Xor);
  common::NodeId prev_a{}, prev_b{};
  for (int i = 0; i < 3; ++i) {
    spec.name = "a" + std::to_string(i);
    const auto a = dag.add_node(spec);
    spec.name = "b" + std::to_string(i);
    const auto b = dag.add_node(spec);
    if (i == 0) {
      dag.add_edge(root, a, 0.95);
      dag.add_edge(root, b, 0.05);
    } else {
      dag.add_edge(prev_a, a);
      dag.add_edge(prev_b, b);
    }
    prev_a = a;
    prev_b = b;
  }
  dag.validate();

  auto run = [&](bool reuse, std::uint64_t seed) {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.seed = seed;
    options.xanadu.miss_policy = core::MissPolicy::Replan;
    options.xanadu.reuse_workers_on_miss = reuse;
    DispatchManager manager{options};
    const auto wf = manager.deploy(dag);
    std::size_t wasted = 0;
    for (int i = 0; i < 120; ++i) {
      manager.force_cold_start();
      const auto r = manager.invoke(wf);
      wasted += r.speculation.wasted_workers;
    }
    return std::pair{wasted, manager.ledger().workers_provisioned};
  };

  const auto [wasted_discard, provisioned_discard] = run(false, 4);
  const auto [wasted_reuse, provisioned_reuse] = run(true, 4);
  // Reuse converts discarded sandboxes into useful ones: fewer wasted
  // workers and fewer fresh provisions for identical workloads.
  EXPECT_LT(wasted_reuse, wasted_discard);
  EXPECT_LT(provisioned_reuse, provisioned_discard);
}

}  // namespace
}  // namespace xanadu
