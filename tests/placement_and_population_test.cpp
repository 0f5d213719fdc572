// Tests for worst-fit cluster placement and the heavy-tailed workflow
// population generator.

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.hpp"
#include "workload/population.hpp"

namespace xanadu {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using common::FunctionId;
using sim::Duration;
using sim::TimePoint;
using workflow::SandboxKind;

ClusterOptions three_hosts() {
  ClusterOptions options;
  options.host_count = 3;
  options.memory_mb_per_host = 4096;
  return options;
}

/// Places a worker and returns its host.
common::HostId place_one(Cluster& cluster, double memory_mb) {
  const auto host = cluster.place(memory_mb);
  EXPECT_TRUE(host.has_value());
  auto* worker = cluster.start_provisioning(FunctionId{0}, SandboxKind::Container,
                                            memory_mb, *host, TimePoint{});
  EXPECT_NE(worker, nullptr);
  return *host;
}

TEST(Placement, WorstFitSpreadsAcrossHosts) {
  Cluster cluster{three_hosts(), common::Rng{1}};
  std::set<std::uint64_t> used;
  for (int i = 0; i < 3; ++i) used.insert(place_one(cluster, 512).value());
  EXPECT_EQ(used.size(), 3u);  // Each placement picks the emptiest host.
}

TEST(Placement, FailsCleanlyWhenFull) {
  ClusterOptions options = three_hosts();
  options.host_count = 1;
  options.memory_mb_per_host = 600;
  Cluster cluster{options, common::Rng{1}};
  place_one(cluster, 512);
  EXPECT_FALSE(cluster.place(512).has_value());
}

// ------------------------------------------------------------ population --

TEST(Population, GeneratesRequestedShape) {
  common::Rng rng{7};
  workload::PopulationOptions options;
  options.workflow_count = 30;
  options.min_depth = 2;
  options.max_depth = 5;
  const auto population =
      workload::make_population(options, Duration::from_minutes(120), rng);
  ASSERT_EQ(population.size(), 30u);
  for (const auto& member : population) {
    EXPECT_GE(member.dag.node_count(), 2u);
    EXPECT_LE(member.dag.node_count(), 5u);
    EXPECT_GE(member.mean_gap, options.min_mean_gap);
    EXPECT_LE(member.mean_gap, options.max_mean_gap);
    EXPECT_GE(member.arrivals.size(), 1u);
    EXPECT_NO_THROW(member.dag.validate());
  }
}

TEST(Population, LogUniformGapsSpanOrdersOfMagnitude) {
  common::Rng rng{11};
  workload::PopulationOptions options;
  options.workflow_count = 200;
  const auto population =
      workload::make_population(options, Duration::from_minutes(60), rng);
  Duration min_gap = population.front().mean_gap;
  Duration max_gap = min_gap;
  for (const auto& member : population) {
    min_gap = std::min(min_gap, member.mean_gap);
    max_gap = std::max(max_gap, member.mean_gap);
  }
  // Spread covers at least two orders of magnitude of the configured range.
  EXPECT_GT(max_gap.seconds() / min_gap.seconds(), 100.0);
  // A heavy tail: a substantial fraction is rarely invoked (>= 1 h gaps),
  // echoing the Azure characterisation the paper cites (~45%).
  const double rare = workload::rare_fraction(population);
  EXPECT_GT(rare, 0.2);
  EXPECT_LT(rare, 0.8);
}

TEST(Population, RejectsBadOptions) {
  common::Rng rng{1};
  workload::PopulationOptions options;
  options.workflow_count = 0;
  EXPECT_THROW(
      workload::make_population(options, Duration::from_minutes(10), rng),
      std::invalid_argument);
  options = {};
  options.min_depth = 0;
  EXPECT_THROW(
      workload::make_population(options, Duration::from_minutes(10), rng),
      std::invalid_argument);
  options = {};
  options.min_mean_gap = Duration::from_minutes(10);
  options.max_mean_gap = Duration::from_minutes(1);
  EXPECT_THROW(
      workload::make_population(options, Duration::from_minutes(10), rng),
      std::invalid_argument);
}

TEST(Population, RareFractionEdgeCases) {
  EXPECT_DOUBLE_EQ(workload::rare_fraction({}), 0.0);
}

}  // namespace
}  // namespace xanadu
