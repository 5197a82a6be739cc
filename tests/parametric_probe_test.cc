#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dds/core_exact.h"
#include "dds/density.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "flow/flow_network.h"
#include "flow/min_cut.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// --------------------------------------------------------------------
// Flow-network invariants shared by the warm-start tests.
// --------------------------------------------------------------------

// Every residual must be non-negative (up to rounding).
void ExpectResidualsNonNegative(const FlowNetwork& net) {
  for (uint32_t arc = 0; arc < net.NumArcs(); ++arc) {
    EXPECT_GE(net.Residual(arc), -kFlowEps) << "arc " << arc;
  }
}

// Net outflow of every non-terminal node must be zero: summing
// InitialCap - Residual over a node's whole adjacency counts forward flow
// positively and, via the reverse arcs, incoming flow negatively.
void ExpectFlowConserved(const FlowNetwork& net, uint32_t source,
                         uint32_t sink) {
  for (uint32_t v = 0; v < net.NumNodes(); ++v) {
    if (v == source || v == sink) continue;
    FlowCap net_outflow = 0;
    net.ForEachOutArc(v, [&](uint32_t e) {
      net_outflow += net.InitialCap(e) - net.Residual(e);
    });
    EXPECT_NEAR(net_outflow, 0.0, 1e-6) << "node " << v;
  }
}

FlowCap TotalSourceOutflow(const FlowNetwork& net, uint32_t source) {
  FlowCap total = 0;
  net.ForEachOutArc(source, [&](uint32_t e) {
    total += net.InitialCap(e) - net.Residual(e);
  });
  return total;
}

template <typename G>
std::vector<VertexId> AllVertices(const G& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  return all;
}

// --------------------------------------------------------------------
// SetArcCapacity / RouteFlow / Resolve unit tests.
// --------------------------------------------------------------------

TEST(SetArcCapacityTest, GrowingCapacityPreservesFlow) {
  FlowNetwork net(4);  // s=0 -> 1 -> 2 -> t=3, bottleneck 1 in the middle
  const uint32_t first = net.AddEdge(0, 1, 5);
  const uint32_t middle = net.AddEdge(1, 2, 1);
  net.AddEdge(2, 3, 5);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 3), 1.0, 1e-12);

  // Raising the bottleneck must keep the routed unit and leave exactly the
  // new headroom as residual.
  EXPECT_EQ(net.SetArcCapacity(middle, 3.0), 0.0);
  EXPECT_NEAR(net.FlowOn(middle), 1.0, 1e-12);
  EXPECT_NEAR(net.Residual(middle), 2.0, 1e-12);
  EXPECT_NEAR(net.InitialCap(middle), 3.0, 1e-12);
  ExpectResidualsNonNegative(net);
  ExpectFlowConserved(net, 0, 3);

  // Warm start: Resolve returns only the incremental flow.
  EXPECT_NEAR(dinic.Resolve(0, 3), 2.0, 1e-12);
  EXPECT_NEAR(TotalSourceOutflow(net, 0), 3.0, 1e-12);
  EXPECT_TRUE(VerifyMaxFlowMinCut(net, 0, 3, 3.0, 1e-9));
  EXPECT_EQ(net.SetArcCapacity(first, 5.0), 0.0);  // no-op update
  ExpectFlowConserved(net, 0, 3);
}

TEST(SetArcCapacityTest, ShrinkingBelowFlowDrainsAndRouteFlowRebalances) {
  FlowNetwork net(4);
  net.AddEdge(0, 1, 5);
  const uint32_t middle = net.AddEdge(1, 2, 4);
  net.AddEdge(2, 3, 5);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 3), 4.0, 1e-12);

  // Cutting the middle capacity below its flow must saturate it at the
  // new value and report the excess.
  const FlowCap excess = net.SetArcCapacity(middle, 1.5);
  EXPECT_NEAR(excess, 2.5, 1e-12);
  EXPECT_NEAR(net.FlowOn(middle), 1.5, 1e-12);
  EXPECT_NEAR(net.Residual(middle), 0.0, 1e-12);

  // Node 1 is now over-supplied by the excess and node 2 under-supplied
  // (for a mid-network arc both endpoints need rebalancing; the DDS
  // engine's sink arcs only ever need the tail-side route).
  EXPECT_NEAR(RouteFlow(&net, 1, 0, excess), excess, 1e-12);
  EXPECT_NEAR(RouteFlow(&net, 3, 2, excess), excess, 1e-12);
  ExpectResidualsNonNegative(net);
  ExpectFlowConserved(net, 0, 3);
  EXPECT_NEAR(TotalSourceOutflow(net, 0), 1.5, 1e-12);

  // The reduced network's max flow is the new bottleneck; the drained
  // flow is already maximum, so Resolve finds nothing to add.
  EXPECT_NEAR(dinic.Resolve(0, 3), 0.0, 1e-12);
  EXPECT_TRUE(VerifyMaxFlowMinCut(net, 0, 3, 1.5, 1e-9));
}

TEST(RouteFlowTest, StopsAtAvailableResidual) {
  FlowNetwork net(3);
  net.AddEdge(0, 1, 2);
  net.AddEdge(1, 2, 2);
  Dinic dinic(&net);
  dinic.Solve(0, 2);
  // Only 2 units of flow arrived at node 1's reverse arcs; asking for more
  // routes what exists and reports the shortfall via the return value.
  EXPECT_NEAR(RouteFlow(&net, 1, 0, 5.0), 2.0, 1e-12);
}

// --------------------------------------------------------------------
// Reparameterize: equivalence with a fresh build at the new guess.
// --------------------------------------------------------------------

class ReparameterizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ReparameterizeTest, MatchesFreshBuildAcrossGuessSchedule) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const Digraph g =
      UniformDigraph(30, 120 + static_cast<int64_t>(rng.NextBounded(60)),
                     17 + static_cast<uint64_t>(GetParam()));
  const double sqrt_a = std::sqrt(0.5 + 0.1 * GetParam());
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));

  // A rise/fall/rise schedule: warm starts must survive both directions.
  const double guesses[] = {0.4 * upper, 0.7 * upper, 0.2 * upper,
                            0.9 * upper, 0.05 * upper, 0.5 * upper};

  DdsNetwork incremental = BuildDdsNetwork(g, AllVertices(g), AllVertices(g),
                                           sqrt_a, guesses[0]);
  Dinic dinic(&incremental.net);
  dinic.Solve(incremental.source, incremental.sink);
  for (double guess : guesses) {
    incremental.Reparameterize(guess);
    dinic.Resolve(incremental.source, incremental.sink);
    ExpectResidualsNonNegative(incremental.net);
    ExpectFlowConserved(incremental.net, incremental.source,
                        incremental.sink);

    DdsNetwork fresh = BuildDdsNetwork(g, AllVertices(g), AllVertices(g),
                                       sqrt_a, guess);
    Dinic fresh_dinic(&fresh.net);
    const FlowCap fresh_flow = fresh_dinic.Solve(fresh.source, fresh.sink);

    // Same max-flow value and the same (unique minimal) min cut, hence
    // identical extracted witness pairs.
    EXPECT_NEAR(TotalSourceOutflow(incremental.net, incremental.source),
                fresh_flow, 1e-6 * std::max<FlowCap>(1.0, fresh_flow));
    EXPECT_TRUE(VerifyMaxFlowMinCut(incremental.net, incremental.source,
                                    incremental.sink, fresh_flow, 1e-6));
    const ExtractedPair warm_pair = ExtractPairFromCut(
        incremental,
        SourceSideOfMinCut(incremental.net, incremental.source));
    const ExtractedPair fresh_pair = ExtractPairFromCut(
        fresh, SourceSideOfMinCut(fresh.net, fresh.source));
    EXPECT_EQ(warm_pair.s, fresh_pair.s) << "guess " << guess;
    EXPECT_EQ(warm_pair.t, fresh_pair.t) << "guess " << guess;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReparameterizeTest, ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Randomized equivalence: the incremental engine must return bit-identical
// results versus fresh-build-per-guess mode across generator families.
// --------------------------------------------------------------------

template <typename G>
void ExpectProbesIdentical(const G& g, const Fraction& ratio,
                           bool refine_cores) {
  const double upper = std::sqrt(static_cast<double>(g.TotalWeight()) *
                                 static_cast<double>(g.MaxEdgeWeight()));
  const double delta = ExactSearchDelta(g);
  const ProbeWindow window{ratio, 0.0, upper, delta};
  ExactOptions options;
  options.refine_cores_in_probe = refine_cores;
  options.record_network_sizes = true;
  ProbeWorkspace incremental_ws;
  const RatioProbeResult incremental = ProbeRatio(
      g, AllVertices(g), AllVertices(g), window, options, &incremental_ws);
  options.incremental_probe = false;
  ProbeWorkspace fresh_ws;
  const RatioProbeResult fresh = ProbeRatio(
      g, AllVertices(g), AllVertices(g), window, options, &fresh_ws);

  // Bit-identical trajectories: same guesses, same witnesses, same pairs.
  EXPECT_EQ(incremental.h_upper, fresh.h_upper);
  EXPECT_EQ(incremental.last_feasible, fresh.last_feasible);
  EXPECT_EQ(incremental.best_density, fresh.best_density);
  EXPECT_EQ(incremental.best_pair.s, fresh.best_pair.s);
  EXPECT_EQ(incremental.best_pair.t, fresh.best_pair.t);
  EXPECT_EQ(incremental.flow.binary_search_iters,
            fresh.flow.binary_search_iters);
  EXPECT_EQ(incremental.flow.network_sizes, fresh.flow.network_sizes);
  // The whole point: the incremental run reuses what the fresh run
  // rebuilds, solving a min cut at every guess either way.
  EXPECT_EQ(fresh.flow.flow_networks_reused, 0);
  EXPECT_EQ(incremental.flow.flow_networks_built +
                incremental.flow.flow_networks_reused,
            fresh.flow.flow_networks_built);
  if (fresh.flow.flow_networks_built > 1) {
    EXPECT_LT(incremental.flow.flow_networks_built,
              fresh.flow.flow_networks_built);
  }
}

TEST(IncrementalProbeEquivalenceTest, UniformFamily) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Digraph g = UniformDigraph(40, 300, seed);
    for (const Fraction ratio :
         {Fraction{1, 2}, Fraction{1, 1}, Fraction{2, 1}}) {
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/true);
    }
  }
}

TEST(IncrementalProbeEquivalenceTest, RmatFamily) {
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    const Digraph g = RmatDigraph(6, 400, seed);
    for (const Fraction ratio : {Fraction{1, 1}, Fraction{3, 2}}) {
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/true);
    }
  }
}

TEST(IncrementalProbeEquivalenceTest, BicliqueFamily) {
  for (uint64_t seed : {8ull, 9ull}) {
    const Digraph g = BicliqueWithNoise(40, 4, 6, 80, seed);
    for (const Fraction ratio : {Fraction{2, 3}, Fraction{1, 1}}) {
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/true);
    }
  }
}

TEST(IncrementalProbeEquivalenceTest, PlantedFamily) {
  for (uint64_t seed : {10ull, 11ull}) {
    const PlantedDigraph planted =
        PlantedDenseBlock(60, 200, 5, 8, 0.9, seed);
    for (const Fraction ratio : {Fraction{5, 8}, Fraction{1, 1}}) {
      ExpectProbesIdentical(planted.graph, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(planted.graph, ratio, /*refine_cores=*/true);
    }
  }
}

// A large network (2048 vertices, 12k edges, ~36k arcs): the warm
// re-solves of the incremental run and the cold solves of the
// fresh-build-per-guess run still leave the same minimal min cuts.
TEST(IncrementalProbeEquivalenceTest, LargeUniformNetwork) {
  ExpectProbesIdentical(UniformDigraph(2048, 12000, 3), Fraction{1, 1},
                        /*refine_cores=*/false);
}

// End-to-end: the full exact solver agrees bit-exactly between modes, and
// the incremental mode actually reuses networks.
TEST(IncrementalProbeEquivalenceTest, SolverEndToEnd) {
  for (uint64_t seed : {21ull, 22ull}) {
    const Digraph g = RmatDigraph(6, 350, seed);
    ExactOptions incremental_options;
    ExactOptions fresh_options;
    fresh_options.incremental_probe = false;
    const DdsSolution incremental = SolveExactDds(g, incremental_options);
    const DdsSolution fresh = SolveExactDds(g, fresh_options);
    EXPECT_EQ(incremental.density, fresh.density);
    EXPECT_EQ(incremental.pair.s, fresh.pair.s);
    EXPECT_EQ(incremental.pair.t, fresh.pair.t);
    EXPECT_EQ(incremental.stats.binary_search_iters,
              fresh.stats.binary_search_iters);
    EXPECT_EQ(fresh.stats.flow_networks_reused, 0);
    EXPECT_EQ(incremental.stats.flow_networks_built +
                  incremental.stats.flow_networks_reused,
              fresh.stats.flow_networks_built);
    EXPECT_GT(incremental.stats.flow_networks_reused, 0);
  }
}

// --------------------------------------------------------------------
// Weighted instantiation: the probe template must keep the same
// incremental-vs-fresh bit-identity when arc capacities are weights.
// --------------------------------------------------------------------

TEST(IncrementalProbeEquivalenceTest, WeightedUniformFamily) {
  WeightOptions heavy;
  heavy.max_weight = 9;
  for (uint64_t seed : {31ull, 32ull, 33ull}) {
    const WeightedDigraph g = UniformWeightedDigraph(40, 300, seed, heavy);
    for (const Fraction ratio :
         {Fraction{1, 2}, Fraction{1, 1}, Fraction{2, 1}}) {
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/true);
    }
  }
}

TEST(IncrementalProbeEquivalenceTest, WeightedLiftedRmatFamily) {
  WeightOptions tail;
  tail.dist = WeightOptions::Dist::kGeometric;
  tail.max_weight = 16;
  for (uint64_t seed : {34ull, 35ull}) {
    const WeightedDigraph g =
        AttachRandomWeights(RmatDigraph(6, 400, seed), seed + 1, tail);
    for (const Fraction ratio : {Fraction{1, 1}, Fraction{3, 2}}) {
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/false);
      ExpectProbesIdentical(g, ratio, /*refine_cores=*/true);
    }
  }
}

TEST(IncrementalProbeEquivalenceTest, WeightedSolverEndToEnd) {
  WeightOptions heavy;
  heavy.max_weight = 7;
  for (uint64_t seed : {41ull, 42ull}) {
    const WeightedDigraph g = UniformWeightedDigraph(32, 200, seed, heavy);
    ExactOptions incremental_options;
    ExactOptions fresh_options;
    fresh_options.incremental_probe = false;
    const DdsSolution incremental = SolveExactDds(g, incremental_options);
    const DdsSolution fresh = SolveExactDds(g, fresh_options);
    EXPECT_EQ(incremental.density, fresh.density);
    EXPECT_EQ(incremental.pair.s, fresh.pair.s);
    EXPECT_EQ(incremental.pair.t, fresh.pair.t);
    EXPECT_EQ(incremental.stats.binary_search_iters,
              fresh.stats.binary_search_iters);
    EXPECT_EQ(fresh.stats.flow_networks_reused, 0);
    EXPECT_EQ(incremental.stats.flow_networks_built +
                  incremental.stats.flow_networks_reused,
              fresh.stats.flow_networks_built);
    EXPECT_GT(incremental.stats.flow_networks_reused, 0);
  }
}

}  // namespace
}  // namespace ddsgraph
