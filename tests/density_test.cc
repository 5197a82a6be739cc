#include "dds/density.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

Digraph SmallGraph() {
  // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
  return Digraph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}, {2, 0}});
}

TEST(PairWeightTest, Basic) {
  const Digraph g = SmallGraph();
  EXPECT_EQ(PairWeight(g, {0}, {1, 2}), 2);
  EXPECT_EQ(PairWeight(g, {0, 1}, {2}), 2);
  EXPECT_EQ(PairWeight(g, {2}, {0}), 1);
  EXPECT_EQ(PairWeight(g, {1}, {0}), 0);
}

TEST(PairWeightTest, EmptySidesGiveZero) {
  const Digraph g = SmallGraph();
  EXPECT_EQ(PairWeight(g, {}, {0, 1, 2}), 0);
  EXPECT_EQ(PairWeight(g, {0}, {}), 0);
}

TEST(PairWeightTest, OverlappingSides) {
  // S = T = V counts all edges.
  const Digraph g = SmallGraph();
  EXPECT_EQ(PairWeight(g, {0, 1, 2}, {0, 1, 2}), 4);
}

TEST(PairDensityTest, KnownValues) {
  const Digraph g = SmallGraph();
  EXPECT_NEAR(PairDensity(g, {0}, {1, 2}), 2.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(PairDensity(g, {0, 1, 2}, {0, 1, 2}), 4.0 / 3.0, 1e-12);
  EXPECT_EQ(PairDensity(g, {}, {0}), 0.0);
}

TEST(PairDensityTest, BicliqueDensity) {
  const Digraph g = BicliqueWithNoise(7, 3, 4, 0, 1);
  std::vector<VertexId> s{0, 1, 2};
  std::vector<VertexId> t{3, 4, 5, 6};
  EXPECT_NEAR(PairDensity(g, s, t), 12.0 / std::sqrt(12.0), 1e-12);
}

TEST(PairLinearizedDensityTest, EqualsTrueDensityAtOwnRatio) {
  const Digraph g = SmallGraph();
  const DdsPair pair{{0}, {1, 2}};  // ratio 1/2
  const double sqrt_a = std::sqrt(0.5);
  EXPECT_NEAR(PairLinearizedDensity(g, pair, sqrt_a),
              PairDensity(g, pair), 1e-12);
}

TEST(PairLinearizedDensityTest, NeverExceedsTrueDensity) {
  // AM-GM: linearized <= true density for every ratio guess.
  Rng rng(5);
  const Digraph g = UniformDigraph(20, 80, 3);
  for (int trial = 0; trial < 50; ++trial) {
    DdsPair pair;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (rng.NextBool(0.4)) pair.s.push_back(v);
      if (rng.NextBool(0.4)) pair.t.push_back(v);
    }
    if (pair.Empty()) continue;
    for (double a : {0.2, 0.7, 1.0, 1.9, 5.0}) {
      EXPECT_LE(PairLinearizedDensity(g, pair, std::sqrt(a)),
                PairDensity(g, pair) + 1e-12);
    }
  }
}

TEST(RatioMismatchPhiTest, Properties) {
  EXPECT_DOUBLE_EQ(RatioMismatchPhi(1.0), 1.0);
  EXPECT_NEAR(RatioMismatchPhi(4.0), (2.0 + 0.5) / 2.0, 1e-12);
  // Symmetry phi(r) == phi(1/r).
  for (double r : {0.1, 0.5, 2.0, 7.3}) {
    EXPECT_NEAR(RatioMismatchPhi(r), RatioMismatchPhi(1.0 / r), 1e-12);
    EXPECT_GE(RatioMismatchPhi(r), 1.0);
  }
}

TEST(NormalizePairTest, SortsAndDeduplicates) {
  const Digraph g = SmallGraph();
  DdsPair pair{{2, 0, 2}, {1, 1}};
  ASSERT_TRUE(NormalizePair(g, &pair));
  EXPECT_EQ(pair.s, (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(pair.t, (std::vector<VertexId>{1}));
}

TEST(NormalizePairTest, RejectsOutOfRange) {
  const Digraph g = SmallGraph();
  DdsPair pair{{5}, {0}};
  EXPECT_FALSE(NormalizePair(g, &pair));
}

}  // namespace
}  // namespace ddsgraph
