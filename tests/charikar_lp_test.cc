#include "lp/charikar_lp.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

TEST(CharikarLpTest, EmptyGraphIsTrivial) {
  const Digraph g = Digraph::FromEdges(3, {});
  const CharikarLpResult result = SolveCharikarLp(g, Fraction{1, 1});
  EXPECT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_EQ(result.lp_value, 0.0);
}

TEST(CharikarLpTest, SingleEdgeAtItsRatio) {
  // One edge (0 -> 1): at ratio a = 1 the optimum pair ({0},{1}) has
  // density 1, and LP(1) = 1.
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  const CharikarLpResult result = SolveCharikarLp(g, Fraction{1, 1});
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.lp_value, 1.0, 1e-8);
  EXPECT_NEAR(result.rounded_density, 1.0, 1e-9);
}

TEST(CharikarLpTest, BicliqueAtItsRatio) {
  // Complete 2x3 biclique: rho = 6 / sqrt(6), ratio 2/3.
  const Digraph g = BicliqueWithNoise(5, 2, 3, 0, 1);
  const CharikarLpResult result = SolveCharikarLp(g, Fraction{2, 3});
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  const double expected = 6.0 / std::sqrt(6.0);
  EXPECT_NEAR(result.lp_value, expected, 1e-7);
  EXPECT_NEAR(result.rounded_density, expected, 1e-9);
}

TEST(CharikarLpTest, LpUpperBoundsAnyPairAtThatRatio) {
  // For every pair (S,T) with |S|/|T| equal to the LP ratio, LP >= rho(S,T).
  const Digraph g = UniformDigraph(6, 14, 3);
  const CharikarLpResult result = SolveCharikarLp(g, Fraction{1, 2});
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  // Enumerate pairs with |S| = 1, |T| = 2 and |S| = 2, |T| = 4, etc.
  for (uint32_t s_mask = 1; s_mask < 64; ++s_mask) {
    for (uint32_t t_mask = 1; t_mask < 64; ++t_mask) {
      const int s_size = __builtin_popcount(s_mask);
      const int t_size = __builtin_popcount(t_mask);
      if (s_size * 2 != t_size) continue;
      DdsPair pair;
      for (VertexId v = 0; v < 6; ++v) {
        if (s_mask & (1u << v)) pair.s.push_back(v);
        if (t_mask & (1u << v)) pair.t.push_back(v);
      }
      EXPECT_GE(result.lp_value + 1e-7, PairDensity(g, pair));
    }
  }
}

// Property: maximizing the rounded density over all realizable ratios
// recovers the exact optimum (Charikar's theorem), checked against the
// exhaustive solver.
class CharikarLpExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CharikarLpExactnessTest, MaxOverRatiosIsExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const uint32_t n = 4 + static_cast<uint32_t>(rng.NextBounded(3));
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const int64_t m = 1 + static_cast<int64_t>(rng.NextBounded(max_edges));
  const Digraph g = UniformDigraph(n, m, GetParam() + 100);
  const DdsSolution exact = NaiveExact(g);

  double best_lp = 0;
  double best_rounded = 0;
  for (const Fraction& ratio : AllRealizableRatios(n)) {
    const CharikarLpResult lp = SolveCharikarLp(g, ratio);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    best_lp = std::max(best_lp, lp.lp_value);
    best_rounded = std::max(best_rounded, lp.rounded_density);
  }
  EXPECT_NEAR(best_lp, exact.density, 1e-6);
  EXPECT_NEAR(best_rounded, exact.density, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CharikarLpExactnessTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace ddsgraph
