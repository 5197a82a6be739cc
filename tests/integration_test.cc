// End-to-end integration tests across graph families: every algorithm is
// run through the public facade on every generator family, and the
// outputs are cross-validated (exactness agreement, approximation
// brackets, self-consistency of reported quantities). This is the test
// analogue of running the whole benchmark suite at miniature scale.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "ddsgraph.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

Digraph MakeFamilyGraph(const std::string& family, uint64_t seed) {
  if (family == "uniform") return UniformDigraph(40, 200, seed);
  if (family == "gnp") return GnpDigraph(35, 0.12, seed);
  if (family == "rmat") return RmatDigraph(6, 300, seed);
  if (family == "biclique") return BicliqueWithNoise(40, 4, 6, 80, seed);
  if (family == "planted") {
    return PlantedDenseBlock(50, 120, 5, 7, 1.0, seed).graph;
  }
  if (family == "sparse-path") {
    std::vector<Edge> edges;
    for (VertexId v = 0; v + 1 < 40; ++v) edges.push_back({v, v + 1});
    return Digraph::FromEdges(40, edges);
  }
  ADD_FAILURE() << "unknown family " << family;
  return Digraph();
}

class FamilyIntegrationTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FamilyIntegrationTest, AllSolversAreConsistent) {
  const auto& [family, seed] = GetParam();
  const Digraph g = MakeFamilyGraph(family, static_cast<uint64_t>(seed));
  ASSERT_GT(g.NumEdges(), 0);

  DdsEngine engine(g);
  auto solve = [&engine](DdsAlgorithm algorithm) {
    DdsRequest request;
    request.algorithm = algorithm;
    return engine.Solve(request).value();
  };
  const DdsSolution exact = solve(DdsAlgorithm::kCoreExact);
  const DdsSolution dc = solve(DdsAlgorithm::kDcExact);
  const DdsSolution core_approx = solve(DdsAlgorithm::kCoreApprox);
  const DdsSolution peel = solve(DdsAlgorithm::kPeelApprox);

  // Exact solvers agree.
  EXPECT_NEAR(exact.density, dc.density, 1e-6);
  // Every solution reports the true density of its own pair.
  for (const DdsSolution* sol : {&exact, &dc, &core_approx, &peel}) {
    EXPECT_NEAR(sol->density, DirectedDensity(g, sol->pair), 1e-9);
    EXPECT_EQ(sol->pair_edges, CountPairEdges(g, sol->pair.s, sol->pair.t));
  }
  // Approximations are bracketed: rho/2-ish below, their certified upper
  // bound above the optimum.
  EXPECT_GE(core_approx.density * 2.0 + 1e-9, exact.density);
  EXPECT_LE(exact.density, core_approx.upper_bound + 1e-9);
  EXPECT_LE(exact.density, peel.upper_bound + 1e-9);
  // Exact dominates approximations.
  EXPECT_GE(exact.density + 1e-9, core_approx.density);
  EXPECT_GE(exact.density + 1e-9, peel.density);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyIntegrationTest,
    ::testing::Combine(::testing::Values("uniform", "gnp", "rmat",
                                         "biclique", "planted",
                                         "sparse-path"),
                       ::testing::Range(1, 4)));

TEST(IntegrationTest, WeightedAndUnweightedPipelinesAgreeOnUnitWeights) {
  const Digraph g = RmatDigraph(5, 150, 3);
  const WeightedDigraph wg = WeightedDigraph::FromDigraph(g);
  EXPECT_NEAR(CoreExact(g).density,
              SolveExactDds(wg, ExactOptions{}).density, 1e-6);
  EXPECT_NEAR(CoreApprox(g).density, CoreApprox(wg).density, 1e-9);
}

TEST(IntegrationTest, SnapRoundTripPreservesSolverOutput) {
  const Digraph g = UniformDigraph(50, 260, 9);
  const std::string path = testing::TempDir() + "/integration_graph.txt";
  ASSERT_TRUE(SaveSnapEdgeList(g, path).ok());
  const auto loaded = LoadSnapEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR(CoreExact(g).density, CoreExact(loaded.value().graph).density,
              1e-9);
}

TEST(IntegrationTest, SubgraphOfSolutionHasSameDensity) {
  // Inducing the pair-restricted subgraph of the optimum and re-solving
  // returns at least the same density (the optimum is self-contained).
  const Digraph g = RmatDigraph(6, 350, 8);
  const DdsSolution sol = CoreExact(g);
  std::vector<bool> keep_s(g.NumVertices(), false);
  std::vector<bool> keep_t(g.NumVertices(), false);
  for (VertexId u : sol.pair.s) keep_s[u] = true;
  for (VertexId v : sol.pair.t) keep_t[v] = true;
  const InducedSubgraph sub = InducePair(g, keep_s, keep_t);
  const DdsSolution sub_sol = CoreExact(sub.graph);
  EXPECT_NEAR(sub_sol.density, sol.density, 1e-6);
}

}  // namespace
}  // namespace ddsgraph
