#include "core/xy_core.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

bool SideContains(const std::vector<VertexId>& side, VertexId v) {
  return std::binary_search(side.begin(), side.end(), v);
}

// Reference implementation: iterate global re-scans until stable, removing
// violators in a different (full-scan, highest-id-first) order than the
// production worklist and recomputing every weighted degree from scratch.
// Fixpoint uniqueness says results must match.
template <typename G>
XyCore ReferenceXyCore(const G& g, int64_t x, int64_t y) {
  const uint32_t n = g.NumVertices();
  std::vector<bool> in_s(n, true);
  std::vector<bool> in_t(n, true);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int64_t v = n - 1; v >= 0; --v) {
      const VertexId u = static_cast<VertexId>(v);
      if (in_s[u] && x > 0) {
        int64_t deg = 0;
        const auto nbrs = g.OutNeighbors(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          if (in_t[nbrs[i]]) deg += g.OutWeight(u, i);
        }
        if (deg < x) {
          in_s[u] = false;
          changed = true;
        }
      }
      if (in_t[u] && y > 0) {
        int64_t deg = 0;
        const auto nbrs = g.InNeighbors(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          if (in_s[nbrs[i]]) deg += g.InWeight(u, i);
        }
        if (deg < y) {
          in_t[u] = false;
          changed = true;
        }
      }
    }
  }
  XyCore core;
  for (VertexId v = 0; v < n; ++v) {
    if (in_s[v]) core.s.push_back(v);
    if (in_t[v]) core.t.push_back(v);
  }
  return core;
}

TEST(XyCoreTest, ZeroZeroCoreIsEverything) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1}});
  const XyCore core = ComputeXyCore(g, 0, 0);
  EXPECT_EQ(core.s.size(), 4u);
  EXPECT_EQ(core.t.size(), 4u);
}

TEST(XyCoreTest, BicliqueIsItsOwnCore) {
  // 3x4 biclique: S side has out-degree 4, T side in-degree 3.
  const Digraph g = BicliqueWithNoise(7, 3, 4, 0, 1);
  const XyCore core = ComputeXyCore(g, 4, 3);
  ASSERT_EQ(core.s.size(), 3u);
  ASSERT_EQ(core.t.size(), 4u);
  for (VertexId u = 0; u < 3; ++u) EXPECT_TRUE(SideContains(core.s, u));
  for (VertexId v = 3; v < 7; ++v) EXPECT_TRUE(SideContains(core.t, v));
  // Anything stricter is empty.
  EXPECT_TRUE(ComputeXyCore(g, 5, 3).Empty());
  EXPECT_TRUE(ComputeXyCore(g, 4, 4).Empty());
}

TEST(XyCoreTest, CascadingPeel) {
  // Path 0 -> 1 -> 2 -> 3: [1,1]-core must cascade to empty (the tail
  // vertex 3 has no outgoing edge, vertex 0 no incoming, and removals
  // propagate).
  const Digraph g = Digraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const XyCore core = ComputeXyCore(g, 1, 1);
  // S candidates need an out-edge to T, T candidates an in-edge from S.
  // S = {0,1,2}, T = {1,2,3} survives: 0->1, 1->2, 2->3 all inside.
  EXPECT_EQ(core.s.size(), 3u);
  EXPECT_EQ(core.t.size(), 3u);
  EXPECT_FALSE(SideContains(core.s, 3));
  EXPECT_FALSE(SideContains(core.t, 0));
}

TEST(XyCoreTest, TwoCycleSurvivesOneOne) {
  const Digraph g = Digraph::FromEdges(2, {{0, 1}, {1, 0}});
  const XyCore core = ComputeXyCore(g, 1, 1);
  EXPECT_EQ(core.s.size(), 2u);
  EXPECT_EQ(core.t.size(), 2u);
}

TEST(XyCoreTest, EmptyForExcessiveThresholds) {
  const Digraph g = UniformDigraph(20, 60, 2);
  EXPECT_TRUE(ComputeXyCore(g, 100, 1).Empty());
  EXPECT_TRUE(ComputeXyCore(g, 1, 100).Empty());
}

TEST(XyCoreTest, MatchesReferenceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Digraph g = UniformDigraph(30, 120, seed);
    for (int64_t x = 0; x <= 5; ++x) {
      for (int64_t y = 0; y <= 5; ++y) {
        const XyCore got = ComputeXyCore(g, x, y);
        const XyCore want = ReferenceXyCore(g, x, y);
        EXPECT_EQ(got.s, want.s) << "seed " << seed << " x " << x << " y "
                                 << y;
        EXPECT_EQ(got.t, want.t) << "seed " << seed << " x " << x << " y "
                                 << y;
      }
    }
  }
}

TEST(XyCoreTest, CoresAreNested) {
  const Digraph g = RmatDigraph(7, 1200, 4);
  const XyCore outer = ComputeXyCore(g, 1, 1);
  const XyCore inner = ComputeXyCore(g, 2, 3);
  for (VertexId u : inner.s) EXPECT_TRUE(SideContains(outer.s, u));
  for (VertexId v : inner.t) EXPECT_TRUE(SideContains(outer.t, v));
}

TEST(XyCoreTest, ValidityPredicate) {
  const Digraph g = UniformDigraph(25, 150, 9);
  const XyCore core = ComputeXyCore(g, 2, 2);
  EXPECT_TRUE(IsValidXyCore(g, core, 2, 2));
  if (!core.Empty()) {
    // Tampering breaks validity: drop the top S vertex, keeping T intact —
    // some T vertex likely loses support. (If not, at least the predicate
    // still passes on valid input; assert the well-formed direction only.)
    XyCore tampered = core;
    tampered.s.clear();
    EXPECT_FALSE(IsValidXyCore(g, tampered, 2, 2));
  }
}

TEST(XyCoreTest, WithinRestrictedCandidatesMatchesNestedComputation) {
  // Computing the [3,3]-core within the [1,1]-core equals computing it on
  // the full graph (nestedness).
  const Digraph g = RmatDigraph(7, 1500, 11);
  const XyCore weak = ReferenceXyCore(g, 1, 1);
  const XyCore direct = ReferenceXyCore(g, 3, 3);
  XyCoreScratch scratch;
  const XyCore within =
      ComputeXyCoreWithin(g, 3, 3, weak.s, weak.t, &scratch);
  EXPECT_EQ(within.s, direct.s);
  EXPECT_EQ(within.t, direct.t);
}

TEST(XyCoreTest, ScratchOverloadMatchesAndReusesAcrossCalls) {
  // The candidate-restricted peel must agree with the reference while one
  // scratch instance serves many calls with varying thresholds and
  // candidate sets — the exact engine's per-guess refinement pattern.
  const Digraph g = UniformDigraph(60, 500, 19);
  const XyCore weak = ReferenceXyCore(g, 1, 1);
  XyCoreScratch scratch;
  for (int64_t x = 1; x <= 4; ++x) {
    for (int64_t y = 1; y <= 4; ++y) {
      const XyCore direct = ReferenceXyCore(g, x, y);
      const XyCore with_scratch =
          ComputeXyCoreWithin(g, x, y, weak.s, weak.t, &scratch);
      EXPECT_EQ(with_scratch.s, direct.s) << x << "," << y;
      EXPECT_EQ(with_scratch.t, direct.t) << x << "," << y;
      // Nested use: refine the just-computed core further.
      if (!direct.Empty()) {
        const XyCore tighter = ReferenceXyCore(g, x + 1, y);
        const XyCore nested =
            ComputeXyCoreWithin(g, x + 1, y, direct.s, direct.t, &scratch);
        EXPECT_EQ(nested.s, tighter.s);
        EXPECT_EQ(nested.t, tighter.t);
      }
    }
  }
}

TEST(XyCoreTest, HeavyWeightsMatchReference) {
  // Weights up to 12 make every threshold a sum of multiplicities, not a
  // neighbor count. Both entry points are checked against the reference:
  // the full-graph peel, and the candidate-restricted peel inside the
  // weaker [x/2, y/2]-core on one reused scratch.
  WeightOptions heavy;
  heavy.max_weight = 12;
  XyCoreScratch scratch;
  int nonempty = 0, empty = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const WeightedDigraph g = seed % 2 == 0
        ? UniformWeightedDigraph(30, 160, seed, heavy)
        : AttachRandomWeights(RmatDigraph(5, 200, seed), seed, heavy);
    ASSERT_GE(g.MaxEdgeWeight(), 9) << "seed " << seed;
    for (int64_t x : {0, 1, 5, 9, 14, 20, 30, 45}) {
      for (int64_t y : {0, 1, 5, 9, 14, 20, 30, 45}) {
        const XyCore want = ReferenceXyCore(g, x, y);
        ++(want.Empty() ? empty : nonempty);
        const XyCore got = ComputeXyCore(g, x, y);
        EXPECT_EQ(got.s, want.s) << "seed " << seed << " x " << x << " y "
                                 << y;
        EXPECT_EQ(got.t, want.t) << "seed " << seed << " x " << x << " y "
                                 << y;
        const XyCore weak = ReferenceXyCore(g, x / 2, y / 2);
        const XyCore within =
            ComputeXyCoreWithin(g, x, y, weak.s, weak.t, &scratch);
        EXPECT_EQ(within.s, want.s) << "seed " << seed << " x " << x
                                    << " y " << y;
        EXPECT_EQ(within.t, want.t) << "seed " << seed << " x " << x
                                    << " y " << y;
      }
    }
  }
  // The threshold grid straddles the weighted degrees.
  EXPECT_GT(nonempty, 0);
  EXPECT_GT(empty, 0);
}

TEST(XyCoreTest, ReversalDuality) {
  // [x,y]-core of G equals the swapped [y,x]-core of the transpose.
  const Digraph g = UniformDigraph(40, 300, 15);
  const Digraph r = g.Reversed();
  const XyCore core = ComputeXyCore(g, 2, 3);
  const XyCore dual = ComputeXyCore(r, 3, 2);
  EXPECT_EQ(core.s, dual.t);
  EXPECT_EQ(core.t, dual.s);
}

TEST(XyCoreTest, MaximalityNoOutsideVertexCanJoin) {
  // For a random graph and the [2,2]-core: adding any outside vertex to S
  // must violate some constraint after re-peeling (uniqueness of the
  // maximal fixpoint). Verified by re-running the peel with every vertex
  // offered as a candidate: the fixpoint drops the outsiders again.
  const Digraph g = UniformDigraph(30, 150, 23);
  const XyCore core = ReferenceXyCore(g, 2, 2);
  std::vector<VertexId> all;
  for (VertexId v = 0; v < g.NumVertices(); ++v) all.push_back(v);
  XyCoreScratch scratch;
  const XyCore recomputed = ComputeXyCoreWithin(g, 2, 2, all, all, &scratch);
  EXPECT_EQ(recomputed.s, core.s);
  EXPECT_EQ(recomputed.t, core.t);
}

TEST(XyCoreTest, OneSidedConstraints) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  // x = 3, y = 0: S = {0} (needs 3 out-edges), T stays all.
  const XyCore core = ComputeXyCore(g, 3, 0);
  EXPECT_EQ(core.s, (std::vector<VertexId>{0}));
  EXPECT_EQ(core.t.size(), 4u);
  // x = 0, y = 1: T = {1,2,3}, S stays all.
  const XyCore core2 = ComputeXyCore(g, 0, 1);
  EXPECT_EQ(core2.s.size(), 4u);
  EXPECT_EQ(core2.t, (std::vector<VertexId>{1, 2, 3}));
}

}  // namespace
}  // namespace ddsgraph
