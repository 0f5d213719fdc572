// Unit tests for src/common: ids, rng, ema, stats, result.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ema.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/inline_vector.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace xanadu::common {
namespace {

// ----------------------------------------------------------------- ids ----

TEST(Ids, DefaultConstructedIdIsInvalid) {
  EXPECT_FALSE(FunctionId{}.valid());
  EXPECT_FALSE(WorkerId{}.valid());
}

TEST(Ids, ExplicitIdIsValidAndComparable) {
  const FunctionId a{1};
  const FunctionId b{2};
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, FunctionId{1});
}

TEST(Ids, GeneratorProducesSequentialIds) {
  IdGenerator<RequestId> gen;
  EXPECT_EQ(gen.next().value(), 0u);
  EXPECT_EQ(gen.next().value(), 1u);
  EXPECT_EQ(gen.next().value(), 2u);
  gen.reset();
  EXPECT_EQ(gen.next().value(), 0u);
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  EXPECT_EQ(set.size(), 2u);
}

// ----------------------------------------------------------------- rng ----

TEST(IdTable, IndexesByIdKeepsReferencesAndCopiesDeep) {
  IdTable<NodeId, std::string> table;
  EXPECT_EQ(table.find(NodeId{0}), nullptr);
  EXPECT_EQ(table.find(NodeId{}), nullptr);  // invalid ids are just absent
  std::string& first = table.try_emplace(NodeId{2}, "two");
  EXPECT_EQ(table.try_emplace(NodeId{2}, "ignored"), "two");
  table.insert_or_assign(NodeId{0}, "zero");
  table.try_emplace(NodeId{100}, "hundred");  // grows past `first`
  EXPECT_EQ(&first, table.find(NodeId{2}));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.contains(NodeId{1}));
  EXPECT_THROW(table.try_emplace(NodeId{}), std::invalid_argument);

  IdTable<NodeId, std::string> copy = table;
  copy.insert_or_assign(NodeId{2}, "changed");
  EXPECT_EQ(*table.find(NodeId{2}), "two");

  std::vector<std::uint64_t> order;
  table.for_each([&](NodeId id, const std::string&) {
    order.push_back(id.value());
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 100}));
}

TEST(IdWindow, SlidesGrowsAndExtendsBackwards) {
  IdWindow<RequestId, std::uint64_t> window;
  const auto insert = [&window](std::uint64_t id) {
    return &window.insert(RequestId{id}, std::make_unique<std::uint64_t>(id));
  };
  const auto ids = [&window] {
    std::vector<std::uint64_t> out;
    window.for_each([&](RequestId id, std::uint64_t value) {
      EXPECT_EQ(value, id.value());
      out.push_back(id.value());
    });
    return out;
  };
  // An entry stays put while the window grows.
  const std::uint64_t* first = insert(0);
  for (std::uint64_t id = 1; id < 20; ++id) insert(id);
  EXPECT_EQ(window.find(RequestId{0}), first);
  for (std::uint64_t id = 0; id < 17; ++id) {
    EXPECT_TRUE(window.erase(RequestId{id}));
  }
  // Ids arrive in order and leave roughly in order: the window slides
  // without growing past the live span.
  for (std::uint64_t id = 20; id < 1000; ++id) {
    insert(id);
    EXPECT_TRUE(window.erase(RequestId{id - 3}));
  }
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{997, 998, 999}));
  EXPECT_EQ(window.find(RequestId{996}), nullptr);
  EXPECT_EQ(window.find(RequestId{1000}), nullptr);
  EXPECT_EQ(window.find(RequestId{}), nullptr);

  // A straggler in the middle keeps the window wide; erasing it trims.
  insert(1010);
  EXPECT_FALSE(window.erase(RequestId{1005}));
  EXPECT_TRUE(window.erase(RequestId{998}));
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{997, 999, 1010}));
  // An id below the window extends it backwards.
  insert(990);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{990, 997, 999, 1010}));
  const std::unique_ptr<std::uint64_t> last = window.extract(RequestId{1010});
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(*last, 1010u);
  EXPECT_EQ(window.size(), 3u);
  for (const std::uint64_t id : {990u, 997u, 999u}) {
    EXPECT_TRUE(window.erase(RequestId{id}));
  }
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(ids(), std::vector<std::uint64_t>{});
  insert(5);  // restarts anywhere
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{5}));
}

TEST(InlineVector, SpillsPastInlineRoomAndCopiesDeep) {
  using List = common::InlineVector<NodeId, 2>;
  const auto values = [](const List& list) {
    return std::vector<NodeId>(list.begin(), list.end());
  };
  List small;
  small.push_back(NodeId{1});
  List big;
  for (std::uint64_t i = 0; i < 5; ++i) big.push_back(NodeId{i});
  ASSERT_EQ(big.size(), 5u);
  EXPECT_EQ(big[4], NodeId{4});

  // Copies are deep, whichever side spilled.
  List copy = big;
  copy[0] = NodeId{9};
  EXPECT_EQ(big[0], NodeId{0});
  List reused = big;
  reused = small;
  EXPECT_EQ(values(reused), values(small));
  reused = big;
  EXPECT_EQ(values(reused), values(big));

  // Moves steal a heap buffer or copy inline elements, and leave the source
  // empty and usable.
  List stolen = std::move(big);
  EXPECT_EQ(stolen.size(), 5u);
  EXPECT_EQ(stolen[3], NodeId{3});
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)
  big.push_back(NodeId{7});
  EXPECT_EQ(values(big), std::vector<NodeId>{NodeId{7}});
  List moved_small;
  moved_small = std::move(small);
  EXPECT_EQ(values(moved_small), std::vector<NodeId>{NodeId{1}});
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformWithinUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng{7};
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 600; ++i) seen.insert(rng.uniform_int(6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 5u);
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng{11};
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbabilityRoughly) {
  Rng rng{13};
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{17};
  const std::vector<double> weights{7.0, 2.0, 1.0};
  std::vector<int> counts(3, 0);
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.1, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng rng{17};
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng{19};
  double total = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / trials, 4.0, 0.15);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng{23};
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.observe(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{31};
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ----------------------------------------------------------------- ema ----

TEST(Ema, FirstSampleInitialisesExactly) {
  Ema ema{0.3};
  ema.observe(42.0);
  EXPECT_DOUBLE_EQ(ema.value(), 42.0);
}

TEST(Ema, BlendsWithAlpha) {
  Ema ema{0.5};
  ema.observe(10.0);
  ema.observe(20.0);
  EXPECT_DOUBLE_EQ(ema.value(), 15.0);
  ema.observe(15.0);
  EXPECT_DOUBLE_EQ(ema.value(), 15.0);
}

TEST(Ema, ValueOrFallsBackWhenEmpty) {
  Ema ema;
  EXPECT_DOUBLE_EQ(ema.value_or(7.0), 7.0);
  ema.observe(3.0);
  EXPECT_DOUBLE_EQ(ema.value_or(7.0), 3.0);
}

TEST(Ema, ValueThrowsWhenEmpty) {
  Ema ema;
  EXPECT_THROW((void)ema.value(), std::logic_error);
}

TEST(Ema, RejectsBadAlpha) {
  EXPECT_THROW(Ema{0.0}, std::invalid_argument);
  EXPECT_THROW(Ema{1.5}, std::invalid_argument);
  EXPECT_NO_THROW(Ema{1.0});
}

TEST(Ema, ConvergesTowardNewRegime) {
  Ema ema{0.3};
  for (int i = 0; i < 10; ++i) ema.observe(100.0);
  for (int i = 0; i < 30; ++i) ema.observe(200.0);
  EXPECT_NEAR(ema.value(), 200.0, 1.0);
}

TEST(Ema, ToleratesOutliers) {
  Ema ema{0.2};
  for (int i = 0; i < 20; ++i) ema.observe(100.0);
  ema.observe(1000.0);  // One outlier.
  EXPECT_LT(ema.value(), 300.0);
}

// --------------------------------------------------------------- stats ----

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.observe(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, EmptyAccumulatorIsZeroed) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Stats, SummarizeComputesPercentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, PercentileSortedEdgeCases) {
  EXPECT_THROW((void)percentile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile_sorted({1.0}, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile_sorted({5.0}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({1.0, 3.0}, 0.5), 2.0);
}

TEST(Stats, LinearFitExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LinearFitNoisyLineHasHighR2) {
  const std::vector<double> x{1, 2, 3, 4, 5, 6};
  const std::vector<double> y{2.1, 3.9, 6.2, 7.8, 10.1, 11.9};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.1);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Stats, LinearFitRejectsDegenerateInput) {
  EXPECT_THROW((void)linear_fit({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)linear_fit({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)linear_fit({3.0, 3.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, LinearFitConstantYIsPerfectFit) {
  const LinearFit fit = linear_fit({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

// -------------------------------------------------------------- result ----

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{make_error("boom")};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
}

TEST(Result, WrongAccessThrows) {
  Result<int> value{1};
  Result<int> error{make_error("x")};
  EXPECT_THROW((void)value.error(), std::logic_error);
  EXPECT_THROW((void)error.value(), std::logic_error);
}

}  // namespace
}  // namespace xanadu::common
