#include "dds/peel_approx.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dds/density.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

TEST(PeelApproxTest, EmptyGraph) {
  const DdsSolution sol = PeelApprox(Digraph::FromEdges(4, {}));
  EXPECT_EQ(sol.density, 0.0);
}

TEST(PeelApproxTest, SingleEdgeIsExact) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  const DdsSolution sol = PeelApprox(g);
  EXPECT_NEAR(sol.density, 1.0, 1e-12);
}

TEST(PeelApproxTest, BicliqueIsRecovered) {
  // Peeling a pure biclique never helps, so the full block is the best
  // intermediate pair at its own ratio.
  const Digraph g = BicliqueWithNoise(9, 4, 5, 0, 1);
  const DdsSolution sol = PeelApprox(g);
  EXPECT_NEAR(sol.density, std::sqrt(20.0), 1e-9);
}

TEST(PeelApproxTest, SolutionIsSelfConsistent) {
  const Digraph g = RmatDigraph(7, 900, 6);
  const DdsSolution sol = PeelApprox(g);
  EXPECT_NEAR(sol.density, PairDensity(g, sol.pair), 1e-12);
  EXPECT_EQ(sol.pair_edges, PairWeight(g, sol.pair.s, sol.pair.t));
  EXPECT_GE(sol.upper_bound, sol.density);
  EXPECT_GT(sol.stats.ratios_probed, 0);
}

TEST(PeelApproxTest, SmallerEpsilonProbesMoreRatios) {
  const Digraph g = UniformDigraph(60, 300, 2);
  PeelApproxOptions coarse;
  coarse.epsilon = 0.5;
  PeelApproxOptions fine;
  fine.epsilon = 0.05;
  const DdsSolution a = PeelApprox(g, coarse);
  const DdsSolution b = PeelApprox(g, fine);
  EXPECT_GT(b.stats.ratios_probed, 3 * a.stats.ratios_probed);
  // Finer ladders cannot do worse... on the ladder points they share; allow
  // small slack since ladders are not nested in general.
  EXPECT_GE(b.density + 0.05 * b.density + 1e-9, a.density);
}

// Approximation guarantee: density >= rho_opt / (2 phi(1+eps)), verified
// against ground truth on random graphs across density classes.
class PeelApproxGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PeelApproxGuaranteeTest, GuaranteeHolds) {
  const auto [seed, density_class] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 97 + 13);
  const uint32_t n = 5 + static_cast<uint32_t>(rng.NextBounded(6));
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const int64_t m = std::max<int64_t>(1, max_edges * (1 + density_class) / 7);
  const Digraph g = UniformDigraph(n, m, static_cast<uint64_t>(seed) + 5);
  const DdsSolution exact = NaiveExact(g);
  PeelApproxOptions options;
  options.epsilon = 0.1;
  const DdsSolution approx = PeelApprox(g, options);
  const double guarantee =
      2.0 * RatioMismatchPhi(1.0 + options.epsilon);
  EXPECT_GE(approx.density * guarantee + 1e-9, exact.density)
      << "n=" << n << " m=" << m;
  // And the reported certified interval brackets the optimum.
  EXPECT_LE(exact.density, approx.upper_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDensities, PeelApproxGuaranteeTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 4)));

// ------------------------------------------------------- weighted peeling

// All-weights-1 weighted peeling is the same templated code down to the
// heap-vs-bucket tie-breaks (util/peel_queue.h), so the whole solution —
// pair, density, certificate and stats counters — is bit-identical to the
// unweighted instantiation.
TEST(WeightedPeelApproxTest, UnitWeightsBitIdenticalToUnweighted) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Digraph base = RmatDigraph(6, 500, seed);
    const WeightedDigraph unit = WeightedDigraph::FromDigraph(base);
    const DdsSolution plain = PeelApprox(base);
    const DdsSolution weighted = PeelApprox(unit);
    EXPECT_EQ(weighted.pair.s, plain.pair.s) << "seed " << seed;
    EXPECT_EQ(weighted.pair.t, plain.pair.t) << "seed " << seed;
    EXPECT_EQ(weighted.density, plain.density) << "seed " << seed;
    EXPECT_EQ(weighted.pair_edges, plain.pair_edges) << "seed " << seed;
    EXPECT_EQ(weighted.lower_bound, plain.lower_bound) << "seed " << seed;
    EXPECT_EQ(weighted.upper_bound, plain.upper_bound) << "seed " << seed;
    EXPECT_EQ(weighted.stats.ratios_probed, plain.stats.ratios_probed);
  }
}

TEST(WeightedPeelApproxTest, HeavyEdgeBeatsBroadUnitBlock) {
  // A 3x3 unit block (weighted rho 3) loses to one edge of weight 10 —
  // the weighted objective must steer the peel to the heavy edge.
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 3; v < 6; ++v) edges.push_back({u, v, 1});
  }
  edges.push_back({6, 7, 10});
  const WeightedDigraph g = WeightedDigraph::FromEdges(8, edges);
  const DdsSolution sol = PeelApprox(g);
  EXPECT_NEAR(sol.density, 10.0, 1e-9);
  EXPECT_EQ(sol.pair.s, (std::vector<VertexId>{6}));
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{7}));
}

// Certified bracket vs ground truth across both weight distributions and
// both weighted generators (the issue's acceptance matrix).
class WeightedPeelGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WeightedPeelGuaranteeTest, CertifiedBracketHoldsOnWeightedGraphs) {
  const auto [seed, dist] = GetParam();
  WeightOptions weights;
  weights.dist = dist == 0 ? WeightOptions::Dist::kUniform
                           : WeightOptions::Dist::kGeometric;
  weights.max_weight = 6;
  // Alternate the two weighted generators by seed parity.
  const WeightedDigraph g =
      (seed % 2 == 0)
          ? UniformWeightedDigraph(9, 30, static_cast<uint64_t>(seed) + 7,
                                   weights)
          : AttachRandomWeights(
                UniformDigraph(9, 26, static_cast<uint64_t>(seed) + 3),
                static_cast<uint64_t>(seed) + 11, weights);
  if (g.TotalWeight() == 0) return;
  const DdsSolution exact = NaiveExact(g);
  PeelApproxOptions options;
  options.epsilon = 0.1;
  const DdsSolution approx = PeelApprox(g, options);
  EXPECT_LE(exact.density, approx.upper_bound + 1e-9)
      << "seed " << seed << " dist " << dist;
  EXPECT_LE(approx.density, exact.density + 1e-9);
  const double guarantee = 2.0 * RatioMismatchPhi(1.0 + options.epsilon);
  EXPECT_GE(approx.density * guarantee + 1e-9, exact.density);
  EXPECT_NEAR(approx.density,
              PairDensity(g, approx.pair.s, approx.pair.t), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWeightDists, WeightedPeelGuaranteeTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 2)));

}  // namespace
}  // namespace ddsgraph
