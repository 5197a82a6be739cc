#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "dds/core_exact.h"
#include "dds/density.h"
#include "dds/naive_exact.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

std::vector<VertexId> AllVertices(const Digraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  return all;
}

// Probes `window` over every vertex with the given probe-engine knobs.
RatioProbeResult ProbeAll(const Digraph& g, const ProbeWindow& window,
                          bool refine_cores, bool record_sizes) {
  ExactOptions options;
  options.refine_cores_in_probe = refine_cores;
  options.record_network_sizes = record_sizes;
  return ProbeRatio(g, AllVertices(g), AllVertices(g), window, options);
}

TEST(ProbeRatioTest, FindsOptimumAtItsOwnRatio) {
  // 3x5 biclique: optimum at ratio 3/5 with density sqrt(15).
  const Digraph g = BicliqueWithNoise(8, 3, 5, 0, 1);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const RatioProbeResult probe =
      ProbeAll(g, {Fraction{3, 5}, 0.0, upper, ExactSearchDelta(g)},
               /*refine_cores=*/false, /*record_sizes=*/false);
  EXPECT_NEAR(probe.best_density, std::sqrt(15.0), 1e-6);
  // h_upper must bracket the found value.
  EXPECT_GE(probe.h_upper + 1e-9, probe.best_density - 1e-6);
}

TEST(ProbeRatioTest, RefinedCoresGiveSameAnswer) {
  const Digraph g = RmatDigraph(6, 300, 9);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  for (const Fraction ratio : {Fraction{1, 2}, Fraction{1, 1}, Fraction{3, 2}}) {
    const RatioProbeResult plain =
        ProbeAll(g, {ratio, 0.0, upper, ExactSearchDelta(g)}, false, false);
    const RatioProbeResult refined =
        ProbeAll(g, {ratio, 0.0, upper, ExactSearchDelta(g)}, true, false);
    EXPECT_NEAR(plain.h_upper, refined.h_upper, 1e-6)
        << "ratio " << ratio.ToString();
    EXPECT_NEAR(plain.best_density, refined.best_density, 1e-6)
        << "ratio " << ratio.ToString();
  }
}

TEST(ProbeRatioTest, RefinedCoresShrinkNetworks) {
  const Digraph g = RmatDigraph(8, 4000, 21);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const RatioProbeResult plain =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, ExactSearchDelta(g)}, false,
               true);
  const RatioProbeResult refined =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, ExactSearchDelta(g)}, true,
               true);
  ASSERT_FALSE(plain.flow.network_sizes.empty());
  ASSERT_FALSE(refined.flow.network_sizes.empty());
  // The unrefined probe rebuilds full-size networks every iteration; the
  // refined one must end far smaller once the lower bound rises.
  EXPECT_LT(refined.flow.network_sizes.back(),
            plain.flow.network_sizes.back() / 2);
  EXPECT_LE(refined.flow.max_network_nodes, plain.flow.max_network_nodes);
}

TEST(ProbeRatioTest, WitnessedLowerBoundAcceleratesConvergence) {
  // Feasible guesses jump `l` to the witness's linearized value instead of
  // the guess itself, so the search converges in a handful of iterations
  // rather than the full log2(range/delta).
  const Digraph g = UniformDigraph(40, 400, 3);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const RatioProbeResult from_zero =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, 1e-6}, false, false);
  EXPECT_GT(from_zero.last_feasible, 0.0);
  EXPECT_GE(from_zero.h_upper + 1e-9, from_zero.last_feasible);
  // log2(20 / 1e-6) would be ~24; witnesses should cut that down hard.
  EXPECT_LE(from_zero.flow.binary_search_iters, 15);

  // A lower_start above h(a) just descends; its h_upper stays a valid
  // upper bound for everything the full search witnessed.
  const RatioProbeResult warm =
      ProbeAll(g, {Fraction{1, 1}, from_zero.best_density * 0.999, upper, 1e-6},
               false, false);
  EXPECT_GE(warm.h_upper + 1e-6, from_zero.last_feasible);
}

TEST(ProbeRatioTest, StopBelowTruncatesDescent) {
  const Digraph g = UniformDigraph(40, 400, 3);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  // A stop threshold above h(a) must cut the search short while keeping
  // h_upper a certified bound (>= h(a), here witnessed by last_feasible of
  // an untruncated probe).
  const RatioProbeResult full =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, 1e-6}, false, false);
  const double stop = full.h_upper + 1.0;
  const RatioProbeResult truncated =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, 1e-6, stop}, false, false);
  EXPECT_LT(truncated.flow.binary_search_iters,
            full.flow.binary_search_iters + 1);
  EXPECT_GE(truncated.h_upper + 1e-9, full.last_feasible);
}

TEST(ProbeRatioTest, UpperBelowLowerShortCircuits) {
  const Digraph g = UniformDigraph(10, 30, 1);
  const RatioProbeResult probe =
      ProbeAll(g, {Fraction{1, 1}, 5.0, 4.0, 1e-6}, false, false);
  EXPECT_EQ(probe.flow.binary_search_iters, 0);
  EXPECT_EQ(probe.flow.flow_networks_built, 0);
  EXPECT_EQ(probe.h_upper, 4.0);
}

TEST(ProbeRatioTest, HUpperIsSoundAcrossRatios) {
  // For every probed ratio c, every pair obeys rho <= h_upper(c) *
  // phi(pair_ratio / c). Cross-check against the exhaustive optimum at its
  // own ratio.
  const Digraph g = UniformDigraph(8, 25, 12);
  const DdsSolution naive = NaiveExact(g);
  const double a_star = static_cast<double>(naive.pair.s.size()) /
                        static_cast<double>(naive.pair.t.size());
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  for (const Fraction ratio :
       {Fraction{1, 3}, Fraction{1, 1}, Fraction{2, 1}, Fraction{3, 1}}) {
    const RatioProbeResult probe =
        ProbeAll(g, {ratio, 0.0, upper, ExactSearchDelta(g)}, false, false);
    const double phi = RatioMismatchPhi(a_star / ratio.ToDouble());
    EXPECT_LE(naive.density, probe.h_upper * phi + 1e-6)
        << "ratio " << ratio.ToString();
  }
}

// ------------------------------------------------ bisect, then Newton

TEST(CoreExactNewtonTest, SolvesNeedFewSearchItersPerRatio) {
  // Bisection to delta costs ~30 cuts per probed ratio; once a witness is
  // in, the probe only asks "does anything beat it?", so a handful of cuts
  // per ratio remain.
  const Digraph graphs[] = {RmatDigraph(11, 16000, 2001),
                            UniformDigraph(1024, 6000, 3)};
  for (const Digraph& g : graphs) {
    const DdsSolution solution = SolveExactDds(g, ExactOptions{});
    ASSERT_GT(solution.stats.ratios_probed, 0);
    EXPECT_LE(solution.stats.binary_search_iters,
              6 * solution.stats.ratios_probed)
        << "n=" << g.NumVertices() << " m=" << g.NumEdges();
  }
}

TEST(ProbeRatioNewtonTest, FullWindowClosesGapBelowDelta) {
  const Digraph g = RmatDigraph(8, 4000, 21);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const double delta = ExactSearchDelta(g);
  const RatioProbeResult probe =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, delta}, true, false);
  ASSERT_GT(probe.last_feasible, 0.0);
  EXPECT_LT(probe.h_upper - probe.last_feasible, delta);
  EXPECT_GE(probe.h_upper, probe.last_feasible);
}

TEST(ProbeRatioNewtonTest, WitnessBelowStopBelowEndsAfterOneCut) {
  // Once a witness is in but still below the truncation threshold, the
  // only question left is whether anything reaches the threshold: one
  // empty cut there ends the probe with h_upper = stop_below.
  const Digraph g = RmatDigraph(8, 4000, 21);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const double delta = ExactSearchDelta(g);
  const RatioProbeResult full =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, delta}, true, false);
  const double stop = full.h_upper + 1.0;
  ASSERT_LT(stop, 0.5 * upper) << "the first guess must stay infeasible";
  const RatioProbeResult truncated =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, delta, stop}, true, false);
  ASSERT_GT(truncated.last_feasible, 0.0);
  EXPECT_EQ(truncated.h_upper, stop);
  EXPECT_LT(truncated.flow.binary_search_iters,
            full.flow.binary_search_iters);
}

TEST(ProbeRatioNewtonTest, NextafterGuardClosesGapOnHugeWeights) {
  // Weights near 1e6 put the densities where one ulp exceeds delta, so
  // l + delta/2 rounds back to l: the guess must step to the next double
  // above l, and the final empty cut must pin u there instead of leaving
  // it at the last bisection guess.
  WeightOptions heavy;
  heavy.min_weight = 500000;
  heavy.max_weight = 1000000;
  const WeightedDigraph g = UniformWeightedDigraph(40, 300, 7, heavy);
  const double delta = ExactSearchDelta(g);
  const double upper = std::sqrt(static_cast<double>(g.TotalWeight()) *
                                 static_cast<double>(g.MaxEdgeWeight()));
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  const RatioProbeResult probe = ProbeRatio(
      g, all, all, {Fraction{1, 1}, 0.0, upper, delta}, ExactOptions{});
  ASSERT_GT(probe.last_feasible, 0.0);
  ASSERT_EQ(probe.last_feasible + 0.5 * delta, probe.last_feasible)
      << "the graph no longer exercises the rounding guard";
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(probe.h_upper, std::nextafter(probe.last_feasible, inf));
  EXPECT_GE(probe.h_upper, PairLinearizedDensity(g, probe.best_pair, 1.0));
}

TEST(ProbeRatioNewtonTest, TruncatedInNewtonPhaseStillCertifiesUpper) {
  // sqrt(m) is far above h(1) here, so the first witness leaves a wide
  // gap for the Newton phase to close.
  const Digraph g = RmatDigraph(8, 4000, 21);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const RatioProbeResult full =
      ProbeAll(g, {Fraction{1, 1}, 0.0, upper, 1e-6}, false, false);
  // Stop at the first check after a witness: the probe is then in its
  // Newton phase, with u still at the last infeasible bisection guess.
  int checks_after_witness = 0;
  SolveControl control(std::numeric_limits<double>::infinity(),
                       [&](const DdsProgress& progress) {
                         if (progress.lower_bound > 0) ++checks_after_witness;
                         return progress.lower_bound == 0;
                       });
  ExactOptions options;
  options.refine_cores_in_probe = false;
  const std::vector<VertexId> all = AllVertices(g);
  const RatioProbeResult truncated =
      ProbeRatio(g, all, all, {Fraction{1, 1}, 0.0, upper, 1e-6}, options,
                 nullptr, &control);
  ASSERT_TRUE(control.stopped());
  EXPECT_EQ(checks_after_witness, 1);
  EXPECT_GT(truncated.last_feasible, 0.0);
  EXPECT_GE(truncated.h_upper - truncated.last_feasible, 1e-6);
  EXPECT_LT(truncated.flow.binary_search_iters,
            full.flow.binary_search_iters);
  // Looser than the full probe's, but still an upper bound on h(a).
  EXPECT_GE(truncated.h_upper, full.last_feasible);
  EXPECT_LE(truncated.last_feasible, full.h_upper);
}

}  // namespace
}  // namespace ddsgraph
