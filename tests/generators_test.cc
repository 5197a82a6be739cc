#include "graph/generators.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "dds/density.h"

namespace ddsgraph {
namespace {

TEST(UniformDigraphTest, ExactEdgeCount) {
  for (int64_t m : {0ll, 1ll, 50ll, 500ll}) {
    const Digraph g = UniformDigraph(50, m, 7);
    EXPECT_EQ(g.NumEdges(), m);
    EXPECT_EQ(g.NumVertices(), 50u);
  }
}

TEST(UniformDigraphTest, DenseRegimeWorks) {
  // More than half of all possible edges triggers the dense sampler.
  const uint32_t n = 20;
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const Digraph g = UniformDigraph(n, max_edges - 5, 3);
  EXPECT_EQ(g.NumEdges(), max_edges - 5);
}

TEST(UniformDigraphTest, CompleteDigraph) {
  const uint32_t n = 9;
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const Digraph g = UniformDigraph(n, max_edges, 3);
  EXPECT_EQ(g.NumEdges(), max_edges);
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(g.OutDegree(u), n - 1);
  }
}

TEST(UniformDigraphTest, DeterministicBySeed) {
  const Digraph a = UniformDigraph(100, 500, 11);
  const Digraph b = UniformDigraph(100, 500, 11);
  const Digraph c = UniformDigraph(100, 500, 12);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
  EXPECT_NE(a.EdgeList(), c.EdgeList());
}

TEST(RmatDigraphTest, RespectsScaleAndIsSimple) {
  const Digraph g = RmatDigraph(8, 2000, 5);
  EXPECT_EQ(g.NumVertices(), 256u);
  EXPECT_LE(g.NumEdges(), 2000);   // dedup may shrink
  EXPECT_GT(g.NumEdges(), 1000);   // but not pathologically
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(RmatDigraphTest, DeterministicBySeed) {
  const Digraph a = RmatDigraph(7, 1000, 9);
  const Digraph b = RmatDigraph(7, 1000, 9);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

TEST(RmatDigraphDeathTest, ParamsMustSumToOne) {
  RmatParams params;
  params.a = 0.9;
  params.b = 0.9;
  EXPECT_DEATH(RmatDigraph(4, 10, 1, params), "sum to 1");
}

TEST(PlantedDenseBlockTest, BlockIsPresentAndDisjoint) {
  const PlantedDigraph planted = PlantedDenseBlock(200, 400, 10, 15, 1.0, 21);
  EXPECT_EQ(planted.planted_s.size(), 10u);
  EXPECT_EQ(planted.planted_t.size(), 15u);
  // Disjoint sides.
  for (VertexId u : planted.planted_s) {
    EXPECT_EQ(std::count(planted.planted_t.begin(), planted.planted_t.end(),
                         u),
              0);
  }
  // With block_density = 1 every S->T edge exists.
  EXPECT_EQ(PairWeight(planted.graph, planted.planted_s,
                           planted.planted_t),
            10 * 15);
}

TEST(PlantedDenseBlockTest, BlockIsTheDensestRegion) {
  const PlantedDigraph planted =
      PlantedDenseBlock(300, 600, 12, 12, 1.0, 33);
  const double planted_density = PairDensity(
      planted.graph, planted.planted_s, planted.planted_t);
  EXPECT_NEAR(planted_density, 12.0, 1e-9);  // 144 / sqrt(144)
  // Background noise alone cannot reach that density: 600 edges spread over
  // 300 vertices put any (S,T) far below rho = 12 unless it contains the
  // planted block.
  EXPECT_LT(static_cast<double>(planted.graph.NumEdges() - 144) / 300.0,
            planted_density / 2);
}

TEST(BicliqueWithNoiseTest, CoreEdgesPresent) {
  const Digraph g = BicliqueWithNoise(50, 4, 6, 100, 13);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 4; v < 10; ++v) {
      EXPECT_TRUE(g.HasEdge(u, v));
    }
  }
}

TEST(GnpDigraphTest, EdgeProbabilityRoughlyRespected) {
  const Digraph g = GnpDigraph(100, 0.05, 17);
  const double expected = 0.05 * 100 * 99;
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expected, expected * 0.25);
}

TEST(GnpDigraphTest, ExtremeProbabilities) {
  EXPECT_EQ(GnpDigraph(20, 0.0, 1).NumEdges(), 0);
  EXPECT_EQ(GnpDigraph(10, 1.0, 1).NumEdges(), 90);
}

TEST(UniformWeightedDigraphTest, DeterministicAndWithinWeightBounds) {
  WeightOptions options;
  options.min_weight = 2;
  options.max_weight = 6;
  const WeightedDigraph a = UniformWeightedDigraph(40, 200, 5, options);
  const WeightedDigraph b = UniformWeightedDigraph(40, 200, 5, options);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());  // fully seeded
  EXPECT_GT(a.NumEdges(), 0);
  for (const WeightedEdge& e : a.EdgeList()) {
    EXPECT_GE(e.weight, options.min_weight);
    // Parallel draws merge by summing, so a multi-drawn arc may exceed
    // max_weight; a single draw never does. Just check positivity plus a
    // generous merged cap.
    EXPECT_LE(e.weight, options.max_weight * 200);
  }
  EXPECT_NE(UniformWeightedDigraph(40, 200, 6, options).EdgeList(),
            a.EdgeList());
}

TEST(UniformWeightedDigraphTest, GeometricTailStaysClamped) {
  WeightOptions options;
  options.dist = WeightOptions::Dist::kGeometric;
  options.min_weight = 1;
  options.max_weight = 10;
  options.decay = 0.7;
  const WeightedDigraph g = UniformWeightedDigraph(60, 150, 9, options);
  int64_t at_min = 0;
  for (const WeightedEdge& e : g.EdgeList()) {
    EXPECT_GE(e.weight, 1);
    at_min += e.weight == 1 ? 1 : 0;
  }
  // P(w = min) = 1 - decay = 0.3; with ~150 arcs some must sit at the
  // minimum and some above it.
  EXPECT_GT(at_min, 0);
  EXPECT_LT(at_min, g.NumEdges());
}

TEST(AttachRandomWeightsTest, PreservesTopology) {
  const Digraph base = RmatDigraph(5, 200, 21);
  WeightOptions options;
  options.max_weight = 5;
  const WeightedDigraph g = AttachRandomWeights(base, 3, options);
  EXPECT_EQ(g.NumVertices(), base.NumVertices());
  EXPECT_EQ(g.NumEdges(), base.NumEdges());
  for (const auto& [u, v] : base.EdgeList()) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
  EXPECT_GE(g.TotalWeight(), base.NumEdges());
}

}  // namespace
}  // namespace ddsgraph
