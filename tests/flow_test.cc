#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "flow/dinic.h"
#include "flow/flow_network.h"
#include "flow/min_cut.h"
#include "flow/push_relabel.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// The classic CLRS 26.1 network (max flow 23).
FlowNetwork ClrsNetwork() {
  FlowNetwork net(6);  // 0 = s, 5 = t
  net.AddEdge(0, 1, 16);
  net.AddEdge(0, 2, 13);
  net.AddEdge(1, 3, 12);
  net.AddEdge(2, 1, 4);
  net.AddEdge(2, 4, 14);
  net.AddEdge(3, 2, 9);
  net.AddEdge(3, 5, 20);
  net.AddEdge(4, 3, 7);
  net.AddEdge(4, 5, 4);
  return net;
}

TEST(DinicTest, ClrsExample) {
  FlowNetwork net = ClrsNetwork();
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 5), 23.0, 1e-9);
  EXPECT_TRUE(VerifyMaxFlowMinCut(net, 0, 5, 23.0, 1e-9));
}

TEST(PushRelabelTest, ClrsExample) {
  FlowNetwork net = ClrsNetwork();
  PushRelabel pr(&net);
  EXPECT_NEAR(pr.Solve(0, 5), 23.0, 1e-9);
  EXPECT_TRUE(VerifyMaxFlowMinCut(net, 0, 5, 23.0, 1e-9));
}

TEST(DinicTest, DisconnectedSinkHasZeroFlow) {
  FlowNetwork net(4);
  net.AddEdge(0, 1, 5);
  net.AddEdge(2, 3, 5);
  Dinic dinic(&net);
  EXPECT_EQ(dinic.Solve(0, 3), 0.0);
}

TEST(PushRelabelTest, DisconnectedSinkHasZeroFlow) {
  FlowNetwork net(4);
  net.AddEdge(0, 1, 5);
  net.AddEdge(2, 3, 5);
  PushRelabel pr(&net);
  EXPECT_EQ(pr.Solve(0, 3), 0.0);
}

TEST(DinicTest, SingleEdge) {
  FlowNetwork net(2);
  net.AddEdge(0, 1, 3.5);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 1), 3.5, 1e-12);
}

TEST(DinicTest, ParallelEdgesAccumulate) {
  FlowNetwork net(2);
  net.AddEdge(0, 1, 1.0);
  net.AddEdge(0, 1, 2.0);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 1), 3.0, 1e-12);
}

TEST(DinicTest, BottleneckIsRespected) {
  // s -> a -> b -> t with middle capacity 1.
  FlowNetwork net(4);
  net.AddEdge(0, 1, 10);
  net.AddEdge(1, 2, 1);
  net.AddEdge(2, 3, 10);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 3), 1.0, 1e-12);
  const auto side = SourceSideOfMinCut(net, 0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(DinicTest, FractionalCapacities) {
  FlowNetwork net(3);
  net.AddEdge(0, 1, 0.25);
  net.AddEdge(0, 1, 0.50);
  net.AddEdge(1, 2, 0.60);
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 2), 0.60, 1e-12);
}

TEST(FlowNetworkTest, ResetFlowRestoresCapacities) {
  FlowNetwork net = ClrsNetwork();
  Dinic dinic(&net);
  dinic.Solve(0, 5);
  net.ResetFlow();
  Dinic again(&net);
  EXPECT_NEAR(again.Solve(0, 5), 23.0, 1e-9);
}

TEST(FlowNetworkTest, FlowOnTracksPushedFlow) {
  FlowNetwork net(2);
  const uint32_t arc = net.AddEdge(0, 1, 4.0);
  net.Push(arc, 2.5);
  EXPECT_NEAR(net.FlowOn(arc), 2.5, 1e-12);
  EXPECT_NEAR(net.Residual(arc), 1.5, 1e-12);
  EXPECT_NEAR(net.Residual(arc ^ 1), 2.5, 1e-12);
}

// Unit-capacity bipartite matching: max flow equals max matching. A perfect
// k-matching network gives flow k.
TEST(DinicTest, BipartiteMatching) {
  constexpr uint32_t k = 8;
  FlowNetwork net(2 + 2 * k);  // s=0, t=1, left 2..2+k-1, right 2+k..
  for (uint32_t i = 0; i < k; ++i) {
    net.AddEdge(0, 2 + i, 1);
    net.AddEdge(2 + k + i, 1, 1);
    net.AddEdge(2 + i, 2 + k + i, 1);            // perfect matching edge
    net.AddEdge(2 + i, 2 + k + (i + 1) % k, 1);  // distractor
  }
  Dinic dinic(&net);
  EXPECT_NEAR(dinic.Solve(0, 1), static_cast<double>(k), 1e-9);
}

// Property test: on random networks, Dinic and PushRelabel agree, both
// satisfy max-flow = min-cut, and both leave the same minimal min cut (the
// residual source side is unique for any maximum flow) — the property that
// lets the exact probes pick either kernel without changing a witness.
class RandomFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowTest, SolversAgreeAndDualityHolds) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBounded(30));
  FlowNetwork net_a(n);
  const int edges = 1 + static_cast<int>(rng.NextBounded(4 * n));
  std::vector<std::tuple<uint32_t, uint32_t, double>> arcs;
  for (int e = 0; e < edges; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    if (u == v) continue;
    const double cap = 0.25 * static_cast<double>(1 + rng.NextBounded(40));
    arcs.emplace_back(u, v, cap);
    net_a.AddEdge(u, v, cap);
  }
  FlowNetwork net_b(n);
  for (const auto& [u, v, cap] : arcs) net_b.AddEdge(u, v, cap);

  const uint32_t source = 0;
  const uint32_t sink = n - 1;
  Dinic dinic(&net_a);
  const FlowCap flow_a = dinic.Solve(source, sink);
  PushRelabel pr(&net_b);
  const FlowCap flow_b = pr.Solve(source, sink);

  EXPECT_NEAR(flow_a, flow_b, 1e-6 * std::max(1.0, flow_a));
  EXPECT_TRUE(VerifyMaxFlowMinCut(net_a, source, sink, flow_a, 1e-6));
  EXPECT_TRUE(VerifyMaxFlowMinCut(net_b, source, sink, flow_b, 1e-6));
  EXPECT_EQ(SourceSideOfMinCut(net_a, source),
            SourceSideOfMinCut(net_b, source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowTest, ::testing::Range(0, 40));

// Finalize freezes the topology: adding an arc afterwards would leave it
// outside the CSR the solvers scan, so it dies instead.
TEST(FlowNetworkDeathTest, AddEdgeAfterFinalizeDies) {
  FlowNetwork net(3);
  net.AddEdge(0, 1, 2.0);
  net.Finalize();
  EXPECT_DEATH(net.AddEdge(1, 2, 1.0), "AddEdge after Finalize");
}

// Finalize's counting sort fills each node's slots with exactly the arcs
// whose tail is that node (the tail of e is To(e ^ 1)), by descending arc
// id, and mirrors each slot's arc head into OutArcTo.
TEST(FlowNetworkTest, CsrSlotsHoldTailArcsByDescendingId) {
  Rng rng(7);
  FlowNetwork net(12);
  for (int e = 0; e < 60; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(12));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(12));
    if (u != v) net.AddEdge(u, v, 1.0 + static_cast<double>(e));
  }
  net.Finalize();
  EXPECT_EQ(net.FirstOut(0), 0u);
  EXPECT_EQ(net.EndOut(net.NumNodes() - 1), net.NumArcs());
  for (uint32_t v = 0; v < net.NumNodes(); ++v) {
    std::vector<uint32_t> want;
    for (uint32_t e = 0; e < net.NumArcs(); ++e) {
      if (net.To(e ^ 1) == v) want.push_back(e);
    }
    std::reverse(want.begin(), want.end());
    std::vector<uint32_t> got;
    for (uint32_t slot = net.FirstOut(v); slot < net.EndOut(v); ++slot) {
      got.push_back(net.OutArc(slot));
      EXPECT_EQ(net.OutArcTo(slot), net.To(net.OutArc(slot)));
    }
    EXPECT_EQ(got, want) << "node " << v;
    if (v + 1 < net.NumNodes()) {
      EXPECT_EQ(net.EndOut(v), net.FirstOut(v + 1));
    }
  }
}

// Parametric re-solve sequences: shrink/grow arc capacities with
// SetArcCapacity (+ RouteFlow to restore conservation after draining) and
// warm-resolve; the resulting max flow must match a fresh network built
// with the final capacities. This is the incremental contract the DDS
// binary search leans on.
class ParametricSequenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParametricSequenceTest, WarmResolveMatchesFreshBuild) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  const uint32_t n = 6 + static_cast<uint32_t>(rng.NextBounded(20));
  const uint32_t source = 0;
  const uint32_t sink = n - 1;
  FlowNetwork net(n);
  std::vector<uint32_t> arcs;      // forward arc ids
  std::vector<double> caps;        // current capacities (mirrors the net)
  std::vector<std::pair<uint32_t, uint32_t>> ends;
  const int edges = 2 + static_cast<int>(rng.NextBounded(5 * n));
  for (int e = 0; e < edges; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
    if (u == v || v == source || u == sink) continue;
    const double cap = 0.5 * static_cast<double>(1 + rng.NextBounded(20));
    arcs.push_back(net.AddEdge(u, v, cap));
    caps.push_back(cap);
    ends.emplace_back(u, v);
  }
  if (arcs.empty()) return;

  Dinic dinic(&net);
  FlowCap flow = dinic.Solve(source, sink);
  for (int step = 0; step < 6; ++step) {
    // Mutate a random arc: sometimes grow, sometimes shrink below its flow.
    const size_t i = rng.NextBounded(arcs.size());
    const double new_cap =
        0.5 * static_cast<double>(rng.NextBounded(24));  // may be 0
    const FlowCap excess = net.SetArcCapacity(arcs[i], new_cap);
    caps[i] = new_cap;
    if (excess > 0) {
      // Drained arcs leave the tail over-supplied and the head
      // under-supplied; route both halves back through the residual
      // network (tail -> source, sink -> head) to restore conservation.
      const auto [tail, head] = ends[i];
      if (tail != source) {
        EXPECT_NEAR(RouteFlow(&net, tail, source, excess), excess, 1e-9);
      }
      if (head != sink) {
        EXPECT_NEAR(RouteFlow(&net, sink, head, excess), excess, 1e-9);
      }
      flow -= excess;
    }
    flow += dinic.Resolve(source, sink);

    // Fresh build with the final capacities must agree — and so must a
    // cold push-relabel on the warm network's own residual state.
    FlowNetwork fresh(n);
    for (size_t k = 0; k < arcs.size(); ++k) {
      fresh.AddEdge(ends[k].first, ends[k].second, caps[k]);
    }
    Dinic fresh_dinic(&fresh);
    const FlowCap fresh_flow = fresh_dinic.Solve(source, sink);
    ASSERT_NEAR(flow, fresh_flow, 1e-6 * std::max(1.0, fresh_flow));
    EXPECT_TRUE(VerifyMaxFlowMinCut(net, source, sink, flow, 1e-6));

    FlowNetwork pr_net(n);
    for (size_t k = 0; k < arcs.size(); ++k) {
      pr_net.AddEdge(ends[k].first, ends[k].second, caps[k]);
    }
    PushRelabel pr(&pr_net);
    EXPECT_NEAR(pr.Solve(source, sink), fresh_flow,
                1e-6 * std::max(1.0, fresh_flow));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParametricSequenceTest,
                         ::testing::Range(0, 20));

TEST(MinCutTest, CutCapacityOfTrivialCut) {
  FlowNetwork net = ClrsNetwork();
  net.Finalize();  // cut readers need the frozen CSR layout
  std::vector<bool> only_source(net.NumNodes(), false);
  only_source[0] = true;
  EXPECT_NEAR(CutCapacity(net, only_source), 29.0, 1e-12);  // 16 + 13
}

TEST(MinCutTest, VerifyRejectsWrongValue) {
  FlowNetwork net = ClrsNetwork();
  Dinic dinic(&net);
  dinic.Solve(0, 5);
  EXPECT_FALSE(VerifyMaxFlowMinCut(net, 0, 5, 99.0, 1e-9));
}

}  // namespace
}  // namespace ddsgraph
