#include "flow/dds_network.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dds/density.h"
#include "flow/dinic.h"
#include "flow/min_cut.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

std::vector<VertexId> AllVertices(const Digraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  return all;
}

// Brute-force max over all pairs (S,T) of E(S,T) - (g/2)(|S|/sqrt(a) +
// sqrt(a)|T|); the min cut of N(G,a,g) must equal m' - that max.
double BruteLinearizedMax(const Digraph& g, double sqrt_a, double guess) {
  const uint32_t n = g.NumVertices();
  double best = 0;  // empty pair scores 0
  for (uint32_t s_mask = 0; s_mask < (1u << n); ++s_mask) {
    for (uint32_t t_mask = 0; t_mask < (1u << n); ++t_mask) {
      int64_t edges = 0;
      int s_size = 0;
      int t_size = 0;
      for (VertexId u = 0; u < n; ++u) {
        if (s_mask & (1u << u)) ++s_size;
        if (t_mask & (1u << u)) ++t_size;
      }
      for (VertexId u = 0; u < n; ++u) {
        if (!(s_mask & (1u << u))) continue;
        for (VertexId v : g.OutNeighbors(u)) {
          if (t_mask & (1u << v)) ++edges;
        }
      }
      const double value =
          static_cast<double>(edges) -
          guess / 2.0 * (s_size / sqrt_a + sqrt_a * t_size);
      best = std::max(best, value);
    }
  }
  return best;
}

TEST(DdsNetworkTest, LayoutAndPairEdges) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1}, {0, 2}, {3, 1}});
  const DdsNetwork net =
      BuildDdsNetwork(g, AllVertices(g), AllVertices(g), 1.0, 0.5);
  EXPECT_EQ(net.num_pair_edges, 3);
  // A side: vertices with outgoing pair edges: 0 and 3. B side: 1 and 2.
  EXPECT_EQ(net.a_vertices.size(), 2u);
  EXPECT_EQ(net.b_vertices.size(), 2u);
  EXPECT_EQ(net.NumNodes(), 2u + 4u);
  EXPECT_EQ(net.source, 0u);
  EXPECT_EQ(net.sink, 1u);
}

TEST(DdsNetworkTest, CandidateRestrictionFiltersEdges) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1}, {0, 2}, {3, 1}});
  const DdsNetwork net = BuildDdsNetwork(g, {0}, {1}, 1.0, 0.5);
  EXPECT_EQ(net.num_pair_edges, 1);
  EXPECT_EQ(net.a_vertices.size(), 1u);
  EXPECT_EQ(net.b_vertices.size(), 1u);
}

TEST(DdsNetworkTest, MinCutMatchesBruteForceLinearizedObjective) {
  // Random small graphs, several (a, g) combinations.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const Digraph g = UniformDigraph(7, 18, seed);
    for (double a : {0.5, 1.0, 2.0}) {
      for (double guess : {0.3, 0.9, 1.7, 3.0}) {
        const double sqrt_a = std::sqrt(a);
        DdsNetwork net =
            BuildDdsNetwork(g, AllVertices(g), AllVertices(g), sqrt_a, guess);
        Dinic dinic(&net.net);
        const double flow = dinic.Solve(net.source, net.sink);
        const double brute = BruteLinearizedMax(g, sqrt_a, guess);
        EXPECT_NEAR(static_cast<double>(net.num_pair_edges) - flow, brute,
                    1e-6)
            << "seed " << seed << " a " << a << " g " << guess;
      }
    }
  }
}

TEST(DdsNetworkTest, ExtractedPairMatchesCutSemantics) {
  // Planted biclique: at its own ratio and a guess below its density, the
  // extracted pair must contain the biclique.
  const Digraph g = BicliqueWithNoise(12, 3, 3, 6, 7);
  const double sqrt_a = 1.0;  // |S| = |T| = 3
  const double guess = 2.0;   // biclique linearized density = 3 > 2
  DdsNetwork net =
      BuildDdsNetwork(g, AllVertices(g), AllVertices(g), sqrt_a, guess);
  Dinic dinic(&net.net);
  dinic.Solve(net.source, net.sink);
  const auto side = SourceSideOfMinCut(net.net, net.source);
  const ExtractedPair pair = ExtractPairFromCut(net, side);
  ASSERT_FALSE(pair.s.empty());
  ASSERT_FALSE(pair.t.empty());
  const DdsPair dds_pair{pair.s, pair.t};
  EXPECT_GT(PairLinearizedDensity(g, dds_pair, sqrt_a), guess);
  for (VertexId u = 0; u < 3; ++u) {
    EXPECT_NE(std::find(pair.s.begin(), pair.s.end(), u), pair.s.end())
        << "biclique source " << u << " missing from cut";
  }
}

TEST(DdsNetworkTest, InfeasibleGuessYieldsTrivialCut) {
  const Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 2}});
  // Densest possible value is 1 (single edge); guess far above.
  DdsNetwork net =
      BuildDdsNetwork(g, AllVertices(g), AllVertices(g), 1.0, 10.0);
  Dinic dinic(&net.net);
  const double flow = dinic.Solve(net.source, net.sink);
  EXPECT_NEAR(flow, static_cast<double>(net.num_pair_edges), 1e-9);
  const auto side = SourceSideOfMinCut(net.net, net.source);
  const ExtractedPair pair = ExtractPairFromCut(net, side);
  const DdsPair dds_pair{pair.s, pair.t};
  EXPECT_LE(PairLinearizedDensity(g, dds_pair, 1.0), 10.0);
}

// The warm-start independence the exact probes rely on: over a
// binary-search guess ladder, warm-reparameterized Dinic and cold Dinic
// leave the same residual source side, so whether the probe reuses a
// network or rebuilds it, the extracted witness is the same.
template <typename G>
void ExpectWarmAndColdAgreeOnGuessLadder(const G& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  for (double a : {0.5, 1.0, 2.0}) {
    const double sqrt_a = std::sqrt(a);
    double l = 0;
    double u = std::sqrt(static_cast<double>(g.TotalWeight()) *
                         static_cast<double>(g.MaxEdgeWeight()));
    DdsNetwork warm = BuildDdsNetwork(g, all, all, sqrt_a, 0.5 * (l + u));
    Dinic warm_dinic(&warm.net);
    warm_dinic.Solve(warm.source, warm.sink);
    for (int step = 0; step < 30; ++step) {
      const double guess = 0.5 * (l + u);
      if (step > 0) {
        warm.Reparameterize(guess);
        warm_dinic.Resolve(warm.source, warm.sink);
      }
      DdsNetwork cold = BuildDdsNetwork(g, all, all, sqrt_a, guess);
      Dinic(&cold.net).Solve(cold.source, cold.sink);

      const std::vector<bool> side = SourceSideOfMinCut(cold.net, cold.source);
      EXPECT_EQ(SourceSideOfMinCut(warm.net, warm.source), side)
          << "a " << a << " step " << step;

      const ExtractedPair pair = ExtractPairFromCut(cold, side);
      const DdsPair dds_pair{pair.s, pair.t};
      const bool feasible = !dds_pair.Empty() &&
                            PairLinearizedDensity(g, dds_pair, sqrt_a) > guess;
      (feasible ? l : u) = guess;
    }
  }
}

TEST(DdsNetworkTest, WarmAndColdDinicLeaveTheSameMinimalCutAcrossAGuessLadder) {
  for (uint64_t seed : {4ull, 5ull}) {
    ExpectWarmAndColdAgreeOnGuessLadder(UniformDigraph(40, 240, seed));
    ExpectWarmAndColdAgreeOnGuessLadder(RmatDigraph(6, 300, seed));
    ExpectWarmAndColdAgreeOnGuessLadder(UniformWeightedDigraph(40, 240, seed));
  }
}

}  // namespace
}  // namespace ddsgraph
