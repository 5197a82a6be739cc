#include "dds/peel_approx.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dds/density.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"
#include "util/peel_queue.h"
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

// ---------------------------------------------------- pinned full-ladder answers

// Every rung below 1/D_out peels like the first such rung, and every rung
// above D_in like the first rung past it, so on these graphs the rung
// tree carries long end runs on one walk. The values below were recorded
// from the build that peeled every rung on its own; they must stay
// bit-identical.
struct PeelPin {
  double density;
  int64_t pair_edges;
  size_t s_size;
  size_t t_size;
  uint64_t pair_hash;  ///< FNV-1a over S, a separator, then T
  int64_t ratios_probed;
  double upper_bound;
};

uint64_t PairHash(const DdsPair& pair) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (VertexId v : pair.s) mix(v);
  mix(0xffffffffull);
  for (VertexId v : pair.t) mix(v);
  return h;
}

// How many ladder rungs follow the first rung of their end run (the
// closing rung at n not counted), with a margin against rounding, so a
// positive count means the graph really has rungs that peel alike.
template <typename G>
int64_t CollapsibleRungs(const G& g, double epsilon) {
  const double n = g.NumVertices();
  const double d_out = static_cast<double>(g.MaxWeightedOutDegree());
  const double d_in = static_cast<double>(g.MaxWeightedInDegree());
  int64_t low = 0;
  int64_t high = 0;
  for (double a = 1.0 / n; a < n; a *= 1.0 + epsilon) {
    low += a * d_out < 0.999 ? 1 : 0;
    high += a > 1.001 * d_in ? 1 : 0;
  }
  return std::max<int64_t>(low - 1, 0) + std::max<int64_t>(high - 1, 0);
}

template <typename G>
void ExpectPinned(const G& g, const PeelPin& pin) {
  EXPECT_GT(CollapsibleRungs(g, 0.1), 0);
  for (int threads : {1, 2, 4}) {
    PeelApproxOptions options;
    options.threads = threads;
    const DdsSolution sol = PeelApprox(g, options);
    EXPECT_EQ(sol.density, pin.density) << "threads " << threads;
    EXPECT_EQ(sol.pair_edges, pin.pair_edges) << "threads " << threads;
    EXPECT_EQ(sol.pair.s.size(), pin.s_size) << "threads " << threads;
    EXPECT_EQ(sol.pair.t.size(), pin.t_size) << "threads " << threads;
    EXPECT_EQ(PairHash(sol.pair), pin.pair_hash) << "threads " << threads;
    EXPECT_EQ(sol.lower_bound, pin.density) << "threads " << threads;
    EXPECT_EQ(sol.upper_bound, pin.upper_bound) << "threads " << threads;
    // The statistic counts the whole ladder.
    EXPECT_EQ(sol.stats.ratios_probed, pin.ratios_probed);
  }
}

int64_t LadderSize(uint32_t n, double epsilon) {
  int64_t size = 1;  // the closing rung at n
  for (double a = 1.0 / n; a < n; a *= 1.0 + epsilon) ++size;
  return size;
}

const PeelPin kUniformPin = {0x1.eb05423c34c29p+2, 5509, 744, 693,
                             0xf14dbf7ba7b8dbf9ull, 142,
                             0x1.eb94051edf2dap+3};
const PeelPin kPlantedPin = {0x1.58e35e2d6d7b3p+4, 528, 20, 30,
                             0x6b909b0c643a852full, 170,
                             0x1.5947a45ca9965p+5};

TEST(PeelApproxPinnedTest, UniformGraphMatchesFullLadder) {
  const Digraph g = UniformDigraph(800, 6000, 1);
  EXPECT_EQ(LadderSize(g.NumVertices(), 0.1), kUniformPin.ratios_probed);
  ExpectPinned(g, kUniformPin);
}

TEST(PeelApproxPinnedTest, PlantedBlockMatchesFullLadder) {
  const Digraph g = PlantedDenseBlock(3000, 12000, 20, 30, 0.9, 7).graph;
  EXPECT_EQ(LadderSize(g.NumVertices(), 0.1), kPlantedPin.ratios_probed);
  ExpectPinned(g, kPlantedPin);
  const DdsSolution sol = PeelApprox(g);
  EXPECT_EQ(sol.pair.s,
            (std::vector<VertexId>{182,  313,  401,  455,  469,  770,  836,
                                   1211, 1354, 1398, 1624, 1682, 2101, 2195,
                                   2518, 2618, 2642, 2816, 2943, 2972}));
  EXPECT_EQ(sol.pair.t,
            (std::vector<VertexId>{122,  146,  262,  386,  411,  514,
                                   526,  530,  647,  843,  1063, 1274,
                                   1439, 1677, 1771, 1954, 1996, 2002,
                                   2053, 2064, 2232, 2248, 2318, 2462,
                                   2470, 2660, 2755, 2760, 2949, 2953}));
}

TEST(PeelApproxPinnedTest, InStarCollapsesNearlyEveryLowRung) {
  // Leaves 1..300 -> hub 0: D_out = 1, so every rung below ratio 1 (about
  // half the ladder) peels identically.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 300; ++v) edges.push_back({v, 0});
  const Digraph g = Digraph::FromEdges(301, edges);
  ASSERT_EQ(g.MaxWeightedOutDegree(), 1);
  EXPECT_GT(CollapsibleRungs(g, 0.1), LadderSize(301, 0.1) / 3);
  std::vector<VertexId> leaves;
  for (VertexId v = 1; v <= 300; ++v) leaves.push_back(v);
  DdsPair pair;
  pair.s = leaves;
  pair.t = {0};
  ExpectPinned(g, PeelPin{0x1.1520cd1372feap+4, 300, 300, 1, PairHash(pair),
                          121, 0x1.15715fd9b7489p+5});
  const DdsSolution sol = PeelApprox(g);
  EXPECT_EQ(sol.pair.s, leaves);
  EXPECT_EQ(sol.pair.t, (std::vector<VertexId>{0}));
}

TEST(PeelApproxPinnedTest, WinnerNextToTheHighEndRunIsKept) {
  // The best pair is the in-star of vertex 18 (ratio 8 = D_in), found on
  // rungs just below the high end run; walking the rungs from 0.7 * D_in
  // up like the first of them loses it (density 2.75 instead of sqrt(8)).
  const Digraph g = UniformDigraph(160, 320, 3);
  ASSERT_EQ(g.MaxWeightedInDegree(), 8);
  const std::vector<VertexId> s = {4, 8, 43, 91, 106, 115, 124, 142};
  DdsPair pair;
  pair.s = s;
  pair.t = {18};
  ExpectPinned(g, PeelPin{0x1.6a09e667f3bccp+1, 8, 8, 1, PairHash(pair),
                          108, 0x1.6a73291c84f5fp+2});
  EXPECT_EQ(PeelApprox(g).pair.s, s);
}

TEST(PeelApproxPinnedTest, UnitWeightLiftsMatchFullLadder) {
  ExpectPinned(WeightedDigraph::FromDigraph(UniformDigraph(800, 6000, 1)),
               kUniformPin);
  ExpectPinned(WeightedDigraph::FromDigraph(
                   PlantedDenseBlock(3000, 12000, 20, 30, 0.9, 7).graph),
               kPlantedPin);
}

// ------------------------------------------------ the per-rung oracle

// The reference PeelApprox: one independent greedy pass per ladder rung,
// each recording its removals, merged first-strictly-better over rungs
// (density desc, rung asc), with the winner read off its recording. The
// rung tree must reproduce its whole solution.
template <typename G>
DdsSolution PeelEveryRung(const G& g, double epsilon) {
  DdsSolution solution;
  if (g.NumEdges() == 0) return solution;
  const uint32_t n = g.NumVertices();
  std::vector<double> ladder;
  for (double a = 1.0 / n; a < n; a *= 1.0 + epsilon) ladder.push_back(a);
  ladder.push_back(n);
  solution.stats.ratios_probed = static_cast<int64_t>(ladder.size());

  double best_density = 0;
  int64_t best_step = -1;
  std::vector<std::pair<VertexId, bool>> best_removals;  // (v, from S)
  for (const double a : ladder) {
    const double sqrt_a = std::sqrt(a);
    std::vector<bool> in_s(n, true);
    std::vector<bool> in_t(n, true);
    std::vector<int64_t> dout(n);
    std::vector<int64_t> din(n);
    PeelQueue<G> s_queue(n, g.MaxWeightedOutDegree());
    PeelQueue<G> t_queue(n, g.MaxWeightedInDegree());
    for (VertexId v = 0; v < n; ++v) {
      dout[v] = g.WeightedOutDegree(v);
      din[v] = g.WeightedInDegree(v);
      s_queue.Insert(v, dout[v]);
      t_queue.Insert(v, din[v]);
    }
    int64_t weight = g.TotalWeight();
    int64_t n_s = n;
    int64_t n_t = n;
    double pass_density = 0;
    int64_t pass_step = -1;
    std::vector<std::pair<VertexId, bool>> removals;
    auto consider = [&] {
      if (n_s == 0 || n_t == 0 || weight == 0) return;
      const double density =
          static_cast<double>(weight) /
          std::sqrt(static_cast<double>(n_s) * static_cast<double>(n_t));
      if (density > pass_density) {
        pass_density = density;
        pass_step = static_cast<int64_t>(removals.size());
      }
    };
    consider();
    while (n_s > 0 && n_t > 0) {
      const double s = static_cast<double>(*s_queue.PeekMinKey());
      const double t = static_cast<double>(*t_queue.PeekMinKey());
      if (s * sqrt_a <= t / sqrt_a) {
        const VertexId u = s_queue.PopMin()->first;
        in_s[u] = false;
        --n_s;
        const auto nbrs = g.OutNeighbors(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          if (!in_t[nbrs[i]]) continue;
          const int64_t w = g.OutWeight(u, i);
          weight -= w;
          din[nbrs[i]] -= w;
          t_queue.DecreaseKey(nbrs[i], din[nbrs[i]]);
        }
        removals.emplace_back(u, true);
      } else {
        const VertexId v = t_queue.PopMin()->first;
        in_t[v] = false;
        --n_t;
        const auto nbrs = g.InNeighbors(v);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          if (!in_s[nbrs[i]]) continue;
          const int64_t w = g.InWeight(v, i);
          weight -= w;
          dout[nbrs[i]] -= w;
          s_queue.DecreaseKey(nbrs[i], dout[nbrs[i]]);
        }
        removals.emplace_back(v, false);
      }
      consider();
    }
    if (pass_density > best_density) {
      best_density = pass_density;
      best_step = pass_step;
      best_removals = std::move(removals);
    }
  }
  if (best_step >= 0) {
    std::vector<bool> in_s(n, true);
    std::vector<bool> in_t(n, true);
    for (int64_t i = 0; i < best_step; ++i) {
      const auto [v, from_s] = best_removals[static_cast<size_t>(i)];
      (from_s ? in_s : in_t)[v] = false;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (in_s[v]) solution.pair.s.push_back(v);
      if (in_t[v]) solution.pair.t.push_back(v);
    }
    solution.density = PairDensity(g, solution.pair);
    solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
  }
  solution.lower_bound = solution.density;
  solution.upper_bound =
      2.0 * RatioMismatchPhi(1.0 + epsilon) * solution.density;
  return solution;
}

// Every field but the wall time.
void ExpectSameSolution(const DdsSolution& got, const DdsSolution& want) {
  EXPECT_EQ(got.pair.s, want.pair.s);
  EXPECT_EQ(got.pair.t, want.pair.t);
  EXPECT_EQ(got.density, want.density);
  EXPECT_EQ(got.pair_edges, want.pair_edges);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
  EXPECT_EQ(got.upper_bound, want.upper_bound);
  EXPECT_EQ(got.interrupted, want.interrupted);
  SolverStats stats = got.stats;
  stats.seconds = want.stats.seconds;
  EXPECT_EQ(stats.ToString(), want.stats.ToString());
}

template <typename G>
void ExpectMatchesEveryRung(const G& g) {
  for (const double epsilon : {0.5, 0.1, 0.01}) {
    const DdsSolution want = PeelEveryRung(g, epsilon);
    EXPECT_GT(want.density, 0.0);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "epsilon " << epsilon << " threads " << threads);
      PeelApproxOptions options;
      options.epsilon = epsilon;
      options.threads = threads;
      ExpectSameSolution(PeelApprox(g, options), want);
    }
  }
}

TEST(PeelApproxRungTreeTest, RmatMatchesEveryRung) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectMatchesEveryRung(RmatDigraph(9, 3000, seed));
  }
}

TEST(PeelApproxRungTreeTest, UniformMatchesEveryRung) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectMatchesEveryRung(UniformDigraph(300, 1500, seed));
  }
}

TEST(PeelApproxRungTreeTest, HeavyWeightsOnTheHeapMatchEveryRung) {
  WeightOptions weights;
  weights.min_weight = 1;
  weights.max_weight = 100000;
  const WeightedDigraph g =
      AttachRandomWeights(RmatDigraph(8, 1500, 4), 9, weights);
  ASSERT_FALSE(HybridPeelQueue::UsesBucket(g.NumVertices(),
                                           g.MaxWeightedOutDegree()));
  ASSERT_FALSE(HybridPeelQueue::UsesBucket(g.NumVertices(),
                                           g.MaxWeightedInDegree()));
  ExpectMatchesEveryRung(g);
}

TEST(PeelApproxRungTreeTest, UnitLiftOnTheBucketMatchesEveryRung) {
  const WeightedDigraph g =
      WeightedDigraph::FromDigraph(RmatDigraph(9, 3000, 2));
  ASSERT_TRUE(HybridPeelQueue::UsesBucket(g.NumVertices(),
                                          g.MaxWeightedOutDegree()));
  ASSERT_TRUE(HybridPeelQueue::UsesBucket(g.NumVertices(),
                                          g.MaxWeightedInDegree()));
  ExpectMatchesEveryRung(g);
}

TEST(PeelApproxRungTreeTest, InStarMatchesEveryRung) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 300; ++v) edges.push_back({v, 0});
  ExpectMatchesEveryRung(Digraph::FromEdges(301, edges));
}

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
