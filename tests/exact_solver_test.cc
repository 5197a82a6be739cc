#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "dds/core_exact.h"
#include "dds/lp_exact.h"
#include "dds/naive_exact.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// Tolerance for cross-checking exact solvers: they agree up to binary
// search termination plus floating point noise.
constexpr double kExactTol = 1e-6;

void ExpectValidSolution(const Digraph& g, const DdsSolution& sol) {
  // The reported density must be exactly the density of the reported pair.
  EXPECT_NEAR(sol.density, PairDensity(g, sol.pair), 1e-12);
  EXPECT_EQ(sol.pair_edges, PairWeight(g, sol.pair.s, sol.pair.t));
}

TEST(FlowExactTest, SingleEdge) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  const DdsSolution sol = SolveExactDds(
      g, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
  EXPECT_NEAR(sol.density, 1.0, kExactTol);
  ExpectValidSolution(g, sol);
}

TEST(FlowExactTest, EmptyGraph) {
  EXPECT_EQ(SolveExactDds(Digraph::FromEdges(3, {}),
                          ExactPresetFor(DdsAlgorithm::kFlowExact,
                                         ExactOptions{}))
                .density,
            0.0);
}

TEST(CoreExactTest, EmptyGraph) {
  EXPECT_EQ(SolveExactDds(Digraph::FromEdges(3, {}), ExactOptions{}).density,
            0.0);
}

TEST(CoreExactTest, Biclique) {
  const Digraph g = BicliqueWithNoise(9, 4, 5, 0, 1);
  const DdsSolution sol = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(sol.density, std::sqrt(20.0), kExactTol);
  EXPECT_EQ(sol.pair.s.size(), 4u);
  EXPECT_EQ(sol.pair.t.size(), 5u);
  ExpectValidSolution(g, sol);
}

TEST(CoreExactTest, AsymmetricStarBeatsSymmetricReading) {
  // Out-star with 7 leaves: rho_opt = 7/sqrt(7) = sqrt(7) at ratio 1/7.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 7; ++v) edges.push_back({0, v});
  const Digraph g = Digraph::FromEdges(8, edges);
  const DdsSolution sol = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(sol.density, std::sqrt(7.0), kExactTol);
  EXPECT_EQ(sol.pair.s.size(), 1u);
  EXPECT_EQ(sol.pair.t.size(), 7u);
}

// ---------------------------------------------------------------------
// The central correctness sweep: on random graphs, every exact algorithm
// agrees with the exhaustive ground truth.
// ---------------------------------------------------------------------

struct SweepCase {
  int seed;
  uint32_t n;
  int64_t m;
};

class ExactAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Digraph MakeGraph() {
    const auto [seed, density_class] = GetParam();
    Rng rng(static_cast<uint64_t>(seed) * 2654435761u + 3);
    const uint32_t n = 4 + static_cast<uint32_t>(rng.NextBounded(6));  // 4..9
    const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
    const int64_t m = std::max<int64_t>(
        1, max_edges * (1 + density_class) / 6);
    return UniformDigraph(n, m, static_cast<uint64_t>(seed) + 1000);
  }
};

TEST_P(ExactAgreementTest, FlowExactMatchesNaive) {
  const Digraph g = MakeGraph();
  const DdsSolution naive = NaiveExact(g);
  const DdsSolution flow = SolveExactDds(
      g, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
  EXPECT_NEAR(flow.density, naive.density, kExactTol);
  ExpectValidSolution(g, flow);
}

TEST_P(ExactAgreementTest, DcExactMatchesNaive) {
  const Digraph g = MakeGraph();
  const DdsSolution naive = NaiveExact(g);
  const DdsSolution dc = SolveExactDds(
      g, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
  EXPECT_NEAR(dc.density, naive.density, kExactTol);
  ExpectValidSolution(g, dc);
}

TEST_P(ExactAgreementTest, CoreExactMatchesNaive) {
  const Digraph g = MakeGraph();
  const DdsSolution naive = NaiveExact(g);
  const DdsSolution core = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(core.density, naive.density, kExactTol);
  ExpectValidSolution(g, core);
}

TEST_P(ExactAgreementTest, LpExactMatchesNaive) {
  const Digraph g = MakeGraph();
  const DdsSolution naive = NaiveExact(g);
  const DdsSolution lp = LpExact(g);
  EXPECT_NEAR(lp.density, naive.density, 1e-5);
  ExpectValidSolution(g, lp);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ExactAgreementTest,
    ::testing::Combine(::testing::Range(0, 15), ::testing::Range(0, 4)));

// Every combination of engine flags must stay exact (the flags are pure
// optimizations). This is the correctness side of ablation E7.
class ExactOptionsTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactOptionsTest, AllFlagCombinationsAgree) {
  const int mask = GetParam();
  ExactOptions options;
  options.divide_and_conquer = (mask & 1) != 0;
  options.core_pruning = (mask & 2) != 0;
  options.refine_cores_in_probe = (mask & 4) != 0;
  options.approx_warm_start = (mask & 8) != 0;
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    const Digraph g =
        UniformDigraph(8, 20 + static_cast<int64_t>(seed), seed);
    const DdsSolution naive = NaiveExact(g);
    const DdsSolution sol = SolveExactDds(g, options);
    EXPECT_NEAR(sol.density, naive.density, kExactTol)
        << "flag mask " << mask << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FlagMasks, ExactOptionsTest,
                         ::testing::Range(0, 16));

// The probe's kernel dispatch, visible through the per-kernel counters:
// Dinic for warm incremental re-solves always, and — below the
// kPushRelabelMinArcs fresh-build cutoff, which every network of a graph
// this size is — Dinic for fresh builds too.
TEST(KernelDispatchTest, StaysOnDinicBelowTheCutoff) {
  const Digraph g = UniformDigraph(24, 130, 12);
  for (bool incremental : {true, false}) {
    ExactOptions options;
    options.incremental_probe = incremental;
    const DdsSolution sol = SolveExactDds(g, options);
    EXPECT_GT(sol.stats.flow_solves_dinic, 0) << incremental;
    EXPECT_EQ(sol.stats.flow_solves_push_relabel, 0) << incremental;
    EXPECT_GT(sol.stats.arcs_scanned, 0) << incremental;
  }
}

// Planted ground truth at a known ratio: the exact solvers must find the
// planted block (or something at least as dense).
TEST(CoreExactTest, RecoversPlantedBlock) {
  const PlantedDigraph planted =
      PlantedDenseBlock(120, 240, 8, 12, 1.0, 5);
  const DdsSolution sol = SolveExactDds(planted.graph, ExactOptions{});
  const double planted_density = PairDensity(
      planted.graph, planted.planted_s, planted.planted_t);
  EXPECT_GE(sol.density + kExactTol, planted_density);
  ExpectValidSolution(planted.graph, sol);
}

// Medium-size cross-check without ground truth: the three engine variants
// must agree with each other.
TEST(CoreExactTest, EngineVariantsAgreeOnMediumGraphs) {
  for (uint64_t seed : {1ull, 2ull}) {
    const Digraph g = RmatDigraph(6, 400, seed);
    const DdsSolution dc = SolveExactDds(
        g, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
    const DdsSolution core = SolveExactDds(g, ExactOptions{});
    EXPECT_NEAR(dc.density, core.density, kExactTol) << "seed " << seed;
  }
}

TEST(CoreExactTest, StatsAreFilled) {
  const Digraph g = UniformDigraph(30, 200, 4);
  ExactOptions options;
  options.record_network_sizes = true;
  const DdsSolution sol = SolveExactDds(g, options);
  EXPECT_GT(sol.stats.ratios_probed, 0);
  EXPECT_GT(sol.stats.flow_networks_built, 0);
  EXPECT_GT(sol.stats.binary_search_iters, 0);
  EXPECT_GT(sol.stats.max_network_nodes, 0);
  EXPECT_FALSE(sol.stats.network_sizes.empty());
  EXPECT_GE(sol.stats.seconds, 0.0);
}

TEST(CoreExactTest, CoreExactProbesFewerRatiosThanFlowExact) {
  const Digraph g = UniformDigraph(24, 120, 8);
  const DdsSolution flow = SolveExactDds(
      g, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
  const DdsSolution core = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(flow.density, core.density, kExactTol);
  // The headline claim at miniature scale: D&C probes far fewer ratios.
  EXPECT_LT(core.stats.ratios_probed, flow.stats.ratios_probed / 4);
}

TEST(ExactSearchDeltaTest, ScalesWithGraphSize) {
  const Digraph small = UniformDigraph(6, 10, 1);
  const Digraph large = UniformDigraph(500, 4000, 1);
  EXPECT_GT(ExactSearchDelta(small), ExactSearchDelta(large));
  EXPECT_GE(ExactSearchDelta(large), 1e-12);
  EXPECT_LE(ExactSearchDelta(small), 1e-4);
}

}  // namespace
}  // namespace ddsgraph
