#include "core/core_approx.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/xy_core_decomposition.h"
#include "dds/density.h"
#include "dds/engine.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ddsgraph {
namespace {

TEST(CoreApproxTest, EmptyGraph) {
  const CoreApproxResult result = CoreApprox(Digraph::FromEdges(5, {}));
  EXPECT_TRUE(result.Empty());
  EXPECT_EQ(result.density, 0.0);
}

TEST(CoreApproxTest, SingleEdge) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}});
  const CoreApproxResult result = CoreApprox(g);
  ASSERT_FALSE(result.Empty());
  EXPECT_EQ(result.best_x, 1);
  EXPECT_EQ(result.best_y, 1);
  EXPECT_NEAR(result.density, 1.0, 1e-12);
}

TEST(CoreApproxTest, BicliqueIsRecoveredExactly) {
  // Pure biclique s x t: best core is [t, s], density sqrt(s t) = rho_opt.
  const Digraph g = BicliqueWithNoise(9, 4, 5, 0, 1);
  const CoreApproxResult result = CoreApprox(g);
  EXPECT_EQ(result.best_x, 5);
  EXPECT_EQ(result.best_y, 4);
  EXPECT_NEAR(result.density, std::sqrt(20.0), 1e-9);
  EXPECT_EQ(result.core.s.size(), 4u);
  EXPECT_EQ(result.core.t.size(), 5u);
}

TEST(CoreApproxTest, BoundsAreOrdered) {
  const Digraph g = RmatDigraph(9, 8000, 17);
  const CoreApproxResult result = CoreApprox(g);
  ASSERT_FALSE(result.Empty());
  EXPECT_LE(result.lower_bound, result.density + 1e-9);
  EXPECT_NEAR(result.upper_bound, 2.0 * result.lower_bound, 1e-12);
  EXPECT_LE(result.density, result.upper_bound + 1e-9);
}

// The branch and bound must land on the argmax of x*y over the full
// staircase, ties going to the larger y (the smaller x), with the same
// core and bit-identical density at every pool width.
template <typename G>
void ExpectSkylineArgmax(const G& g, const std::string& label) {
  const std::vector<SkylinePoint> skyline = CoreSkyline(g);
  ASSERT_FALSE(skyline.empty()) << label;
  SkylinePoint best;
  for (const SkylinePoint& p : skyline) {
    if (static_cast<__int128>(p.x) * p.y >
        static_cast<__int128>(best.x) * best.y) {
      best = p;
    }
  }
  const XyCore core = ComputeXyCore(g, best.x, best.y);
  const double density = PairDensity(g, core.s, core.t);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const CoreApproxResult result = CoreApprox(g, &pool);
    EXPECT_EQ(result.best_x, best.x) << label << " threads " << threads;
    EXPECT_EQ(result.best_y, best.y) << label << " threads " << threads;
    EXPECT_EQ(result.core.s, core.s) << label << " threads " << threads;
    EXPECT_EQ(result.core.t, core.t) << label << " threads " << threads;
    EXPECT_EQ(result.density, density) << label << " threads " << threads;
  }
}

TEST(CoreApproxTest, ProductMatchesFullSkylineScan) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    const Digraph uniform = UniformDigraph(50, 400, seed);
    const Digraph rmat = RmatDigraph(8, 3000, seed);
    const Digraph planted =
        PlantedDenseBlock(300, 1500, 12, 20, 0.9, seed).graph;
    ExpectSkylineArgmax(uniform, "uniform" + tag);
    ExpectSkylineArgmax(rmat, "rmat" + tag);
    ExpectSkylineArgmax(planted, "planted" + tag);
    ExpectSkylineArgmax(AttachRandomWeights(rmat, seed),
                        "weighted rmat" + tag);
    WeightOptions heavy_tail;
    heavy_tail.dist = WeightOptions::Dist::kGeometric;
    heavy_tail.max_weight = 64;
    ExpectSkylineArgmax(AttachRandomWeights(planted, seed, heavy_tail),
                        "weighted planted" + tag);
  }
}

TEST(CoreApproxTest, MatchesSkylineWhenLevelsSpanAMillionXValues) {
  WeightOptions wide;
  wide.min_weight = 500000;
  wide.max_weight = 1500000;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const WeightedDigraph g = UniformWeightedDigraph(30, 120, seed, wide);
    const std::vector<SkylinePoint> skyline = CoreSkyline(g);
    int64_t widest = skyline.front().x;
    for (size_t i = 1; i < skyline.size(); ++i) {
      widest = std::max(widest, skyline[i].x - skyline[i - 1].x);
    }
    EXPECT_GE(widest, 1000000) << "seed " << seed;
    ExpectSkylineArgmax(g, "wide seed " + std::to_string(seed));
  }
}

// Disjoint s x t bicliques, one per {s, t} entry; each adds the staircase
// corner (x, y) = (t, s).
Digraph DisjointBicliques(
    const std::vector<std::pair<VertexId, VertexId>>& blocks) {
  std::vector<Edge> edges;
  VertexId first = 0;
  for (const auto& [s, t] : blocks) {
    for (VertexId u = 0; u < s; ++u) {
      for (VertexId v = 0; v < t; ++v) {
        edges.push_back({first + u, first + s + v});
      }
    }
    first += s + t;
  }
  return Digraph::FromEdges(first, edges);
}

TEST(CoreApproxTest, EqualProductCornersResolveToTheLargestY) {
  // Corners tied at x*y = 12: [4,3], [6,2] and [12,1].
  const Digraph twelve = DisjointBicliques({{3, 4}, {2, 6}, {1, 12}});
  // Corners tied at x*y = 6, [2,3] and [3,2], beside a [4,1] star. The
  // search meets [3,2] first, and the interval left holding x = 2 then
  // has a bound of exactly 6: only the smaller-x rule keeps it open.
  const Digraph six = DisjointBicliques({{3, 2}, {2, 3}, {1, 4}});
  ASSERT_EQ(CoreSkyline(twelve).size(), 3u);
  ASSERT_EQ(CoreSkyline(six).size(), 3u);
  ExpectSkylineArgmax(twelve, "three corners tied at 12");
  ExpectSkylineArgmax(six, "two corners tied at 6");
  EXPECT_EQ(CoreApprox(twelve).best_x, 4);
  EXPECT_EQ(CoreApprox(twelve).best_y, 3);
  EXPECT_EQ(CoreApprox(six).best_x, 2);
  EXPECT_EQ(CoreApprox(six).best_y, 3);
}

TEST(CoreApproxTest, HeavyWeightsKeepTheBracketAroundTheOptimum) {
  // Products of these corners pass 2^63: 4e9 * 4e9 and 3.5e9 * 7e9.
  const std::vector<WeightedDigraph> graphs = {
      WeightedDigraph::FromEdges(3, {{0, 1, 4000000000}, {1, 2, 1}}),
      WeightedDigraph::FromEdges(3,
                                 {{0, 1, 3500000000}, {2, 1, 3500000000}}),
  };
  for (size_t i = 0; i < graphs.size(); ++i) {
    DdsEngine engine(graphs[i]);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreApprox;
    const DdsSolution approx = engine.Solve(request).value();
    request.algorithm = DdsAlgorithm::kCoreExact;
    const DdsSolution exact = engine.Solve(request).value();
    ASSERT_FALSE(approx.pair.s.empty()) << "graph " << i;
    EXPECT_GT(exact.density, 0.0) << "graph " << i;
    EXPECT_LE(approx.lower_bound, exact.density) << "graph " << i;
    EXPECT_GE(approx.upper_bound, exact.density) << "graph " << i;
    EXPECT_LE(approx.density, approx.upper_bound) << "graph " << i;
  }
}

// The headline guarantee: density >= rho_opt / 2, and the certified bounds
// bracket rho_opt. Checked against the exhaustive solver on small random
// graphs of varying density.
class CoreApproxGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoreApproxGuaranteeTest, TwoApproximationHolds) {
  const auto [seed, density_class] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  const uint32_t n = 6 + static_cast<uint32_t>(rng.NextBounded(5));
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1);
  const int64_t m =
      std::max<int64_t>(1, max_edges * (density_class + 1) / 8);
  const Digraph g = UniformDigraph(n, m, static_cast<uint64_t>(seed));
  const DdsSolution exact = NaiveExact(g);
  const CoreApproxResult approx = CoreApprox(g);
  ASSERT_FALSE(approx.Empty());
  EXPECT_GE(approx.density * 2.0 + 1e-9, exact.density)
      << "n=" << n << " m=" << m;
  EXPECT_LE(exact.density, approx.upper_bound + 1e-9);
  EXPECT_GE(exact.density + 1e-9, approx.lower_bound);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDensities, CoreApproxGuaranteeTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 4)));

TEST(CoreApproxTest, PlantedBlockIsFound) {
  const PlantedDigraph planted =
      PlantedDenseBlock(400, 800, 14, 14, 1.0, 99);
  const CoreApproxResult result = CoreApprox(planted.graph);
  ASSERT_FALSE(result.Empty());
  // The planted 14x14 block has density 14; the approximation must reach
  // at least half of that, and in practice the exact block.
  EXPECT_GE(result.density * 2.0 + 1e-9, 14.0);
}

}  // namespace
}  // namespace ddsgraph
