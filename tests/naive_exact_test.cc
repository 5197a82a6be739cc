#include "dds/naive_exact.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace ddsgraph {
namespace {

TEST(NaiveExactTest, EmptyGraph) {
  const DdsSolution sol = NaiveExact(Digraph::FromEdges(4, {}));
  EXPECT_EQ(sol.density, 0.0);
  EXPECT_TRUE(sol.pair.Empty());
}

TEST(NaiveExactTest, SingleEdge) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, 1.0, 1e-12);
  EXPECT_EQ(sol.pair.s, (std::vector<VertexId>{0}));
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{1}));
  EXPECT_EQ(sol.pair_edges, 1);
}

TEST(NaiveExactTest, TwoCycle) {
  // 0 <-> 1: S = T = {0,1} gives 2 edges / 2 = 1; S={0},T={1} gives 1.
  const Digraph g = Digraph::FromEdges(2, {{0, 1}, {1, 0}});
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, 1.0, 1e-12);
}

TEST(NaiveExactTest, BicliqueDensityIsSqrtST) {
  const Digraph g = BicliqueWithNoise(6, 2, 4, 0, 1);
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, std::sqrt(8.0), 1e-12);
  EXPECT_EQ(sol.pair.s.size(), 2u);
  EXPECT_EQ(sol.pair.t.size(), 4u);
}

TEST(NaiveExactTest, StarPrefersFullFanOut) {
  // 0 -> {1..5}: best pair is ({0}, {1..5}) with density 5/sqrt(5).
  const Digraph g =
      Digraph::FromEdges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, std::sqrt(5.0), 1e-12);
  EXPECT_EQ(sol.pair.s.size(), 1u);
  EXPECT_EQ(sol.pair.t.size(), 5u);
}

TEST(NaiveExactTest, OverlappingSidesWhenCyclic) {
  // Directed triangle: best is S = T = {0,1,2}, density 3/3 = 1.
  const Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density, 1.0, 1e-12);
  EXPECT_EQ(sol.pair.s.size(), 3u);
  EXPECT_EQ(sol.pair.t.size(), 3u);
}

TEST(NaiveExactTest, SolutionDensityIsConsistent) {
  const Digraph g = UniformDigraph(8, 30, 77);
  const DdsSolution sol = NaiveExact(g);
  EXPECT_NEAR(sol.density,
              static_cast<double>(sol.pair_edges) /
                  std::sqrt(static_cast<double>(sol.pair.s.size()) *
                            static_cast<double>(sol.pair.t.size())),
              1e-12);
  EXPECT_EQ(sol.pair_edges, PairWeight(g, sol.pair.s, sol.pair.t));
}

TEST(NaiveExactDeathTest, RejectsLargeGraphs) {
  const Digraph g = UniformDigraph(20, 40, 1);
  EXPECT_DEATH(NaiveExact(g), "4\\^n");
}

}  // namespace
}  // namespace ddsgraph
