#include "dds/batch_peel_approx.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dds/density.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

TEST(BatchPeelApproxTest, EmptyGraph) {
  EXPECT_EQ(BatchPeelApprox(Digraph::FromEdges(3, {})).density, 0.0);
}

TEST(BatchPeelApproxTest, SingleEdge) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  EXPECT_NEAR(BatchPeelApprox(g).density, 1.0, 1e-12);
}

TEST(BatchPeelApproxTest, BicliqueIsRecovered) {
  const Digraph g = BicliqueWithNoise(9, 4, 5, 0, 1);
  const DdsSolution sol = BatchPeelApprox(g);
  EXPECT_NEAR(sol.density, std::sqrt(20.0), 1e-9);
}

TEST(BatchPeelApproxTest, SelfConsistentReporting) {
  const Digraph g = RmatDigraph(7, 800, 4);
  const DdsSolution sol = BatchPeelApprox(g);
  EXPECT_NEAR(sol.density, DirectedDensity(g, sol.pair), 1e-12);
  EXPECT_EQ(sol.pair_edges, CountPairEdges(g, sol.pair.s, sol.pair.t));
  EXPECT_GE(sol.upper_bound, sol.density);
  EXPECT_GT(sol.stats.ratios_probed, 0);
  EXPECT_GT(sol.stats.binary_search_iters, 0);  // total passes
}

TEST(BatchPeelApproxTest, UsesFewPassesPerRatio) {
  // The point of the batch variant: O(log n / log beta) passes per ratio.
  const Digraph g = UniformDigraph(2000, 12000, 5);
  BatchPeelOptions options;
  options.batch_epsilon = 0.5;
  const DdsSolution sol = BatchPeelApprox(g, options);
  const double avg_passes =
      static_cast<double>(sol.stats.binary_search_iters) /
      static_cast<double>(sol.stats.ratios_probed);
  // log_{1.5}(2000) ~ 18.7; allow generous slack, but far below n.
  EXPECT_LT(avg_passes, 60.0);
}

class BatchPeelGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchPeelGuaranteeTest, CertifiedBracketHolds) {
  const auto [seed, density_class] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 53 + 11);
  const uint32_t n = 5 + static_cast<uint32_t>(rng.NextBounded(6));
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const int64_t m =
      std::max<int64_t>(1, max_edges * (1 + density_class) / 7);
  const Digraph g = UniformDigraph(n, m, static_cast<uint64_t>(seed) + 40);
  const DdsSolution exact = NaiveExact(g);
  const DdsSolution approx = BatchPeelApprox(g);
  // The certified upper bound brackets the optimum...
  EXPECT_LE(exact.density, approx.upper_bound + 1e-9)
      << "n=" << n << " m=" << m;
  // ...and the solution is within the guarantee factor.
  const double factor = approx.upper_bound / approx.density;
  EXPECT_GE(approx.density * factor + 1e-9, exact.density);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDensities, BatchPeelGuaranteeTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 4)));

// ------------------------------------------------------- weighted peeling

TEST(WeightedBatchPeelTest, UnitWeightsBitIdenticalToUnweighted) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Digraph base = RmatDigraph(6, 500, seed);
    const WeightedDigraph unit = WeightedDigraph::FromDigraph(base);
    const DdsSolution plain = BatchPeelApprox(base);
    const DdsSolution weighted = BatchPeelApprox(unit);
    EXPECT_EQ(weighted.pair.s, plain.pair.s) << "seed " << seed;
    EXPECT_EQ(weighted.pair.t, plain.pair.t) << "seed " << seed;
    EXPECT_EQ(weighted.density, plain.density) << "seed " << seed;
    EXPECT_EQ(weighted.pair_edges, plain.pair_edges) << "seed " << seed;
    EXPECT_EQ(weighted.lower_bound, plain.lower_bound) << "seed " << seed;
    EXPECT_EQ(weighted.upper_bound, plain.upper_bound) << "seed " << seed;
    // The pass count is the streaming cost model — it must not drift.
    EXPECT_EQ(weighted.stats.binary_search_iters,
              plain.stats.binary_search_iters)
        << "seed " << seed;
    EXPECT_EQ(weighted.stats.ratios_probed, plain.stats.ratios_probed);
  }
}

TEST(WeightedBatchPeelTest, HeavyEdgeBeatsBroadUnitBlock) {
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 3; v < 6; ++v) edges.push_back({u, v, 1});
  }
  edges.push_back({6, 7, 10});
  const WeightedDigraph g = WeightedDigraph::FromEdges(8, edges);
  const DdsSolution sol = BatchPeelApprox(g);
  EXPECT_NEAR(sol.density, 10.0, 1e-9);
  EXPECT_EQ(sol.pair.s, (std::vector<VertexId>{6}));
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{7}));
}

class WeightedBatchPeelGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WeightedBatchPeelGuaranteeTest, CertifiedBracketHolds) {
  const auto [seed, dist] = GetParam();
  WeightOptions weights;
  weights.dist = dist == 0 ? WeightOptions::Dist::kUniform
                           : WeightOptions::Dist::kGeometric;
  weights.max_weight = 6;
  const WeightedDigraph g =
      (seed % 2 == 0)
          ? UniformWeightedDigraph(9, 30, static_cast<uint64_t>(seed) + 21,
                                   weights)
          : AttachRandomWeights(
                UniformDigraph(9, 26, static_cast<uint64_t>(seed) + 17),
                static_cast<uint64_t>(seed) + 29, weights);
  if (g.TotalWeight() == 0) return;
  const DdsSolution exact = NaiveExact(g);
  const DdsSolution approx = BatchPeelApprox(g);
  EXPECT_LE(exact.density, approx.upper_bound + 1e-9)
      << "seed " << seed << " dist " << dist;
  EXPECT_LE(approx.density, exact.density + 1e-9);
  EXPECT_NEAR(approx.density,
              PairDensity(g, approx.pair.s, approx.pair.t), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWeightDists, WeightedBatchPeelGuaranteeTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 2)));

}  // namespace
}  // namespace ddsgraph
