#include "stream/dynamic_digraph.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// ----------------------------------------------------------- edge stream

TEST(EdgeStreamTest, ParsesAndFormatsOps) {
  const Result<EdgeBatch> batch = ParseEdgeOps("+1 2, +2 3 5; -1 2");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), 3u);
  EXPECT_EQ(batch.value()[0], EdgeOp::Insert(1, 2));
  EXPECT_EQ(batch.value()[1], EdgeOp::Insert(2, 3, 5));
  EXPECT_EQ(batch.value()[2], EdgeOp::Delete(1, 2));
  // Format(Parse(s)) is canonical: weight-1 inserts drop the weight.
  EXPECT_EQ(FormatEdgeOps(batch.value()), "+1 2, +2 3 5, -1 2");
}

TEST(EdgeStreamTest, RejectsMalformedOps) {
  EXPECT_FALSE(ParseEdgeOps("").ok());
  EXPECT_FALSE(ParseEdgeOps("   ").ok());
  EXPECT_FALSE(ParseEdgeOps("+1").ok());
  EXPECT_FALSE(ParseEdgeOps("x1 2").ok());
  EXPECT_FALSE(ParseEdgeOps("+1 2 foo").ok());
  EXPECT_FALSE(ParseEdgeOps("+1 2, , -3 4").ok());
  // UINT32_MAX is reserved: the overlay grows to id + 1 vertices, which
  // must fit in a VertexId. One below it is the largest accepted id.
  EXPECT_FALSE(ParseEdgeOps("+4294967295 0").ok());
  EXPECT_FALSE(ParseEdgeOps("-0 4294967295").ok());
  EXPECT_TRUE(ParseEdgeOps("+4294967294 0").ok());
}

// -------------------------------------------------- overlay bit-identity

// Reference model: the logical edge set maintained with exactly the
// FromEdges semantics the overlay promises (self-loops dropped, unweighted
// inserts idempotent, weighted inserts merge by summing, deletes total).
template <typename WeightPolicy>
struct ReferenceModel {
  using Graph = DigraphT<WeightPolicy>;

  std::map<std::pair<VertexId, VertexId>, int64_t> edges;
  uint32_t num_vertices = 0;

  void Seed(const Graph& base) {
    num_vertices = base.NumVertices();
    for (VertexId u = 0; u < base.NumVertices(); ++u) {
      const auto nbrs = base.OutNeighbors(u);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        edges[{u, nbrs[k]}] = base.OutWeight(u, k);
      }
    }
  }

  void Apply(const EdgeBatch& batch) {
    for (const EdgeOp& op : batch) {
      if (op.from == op.to) continue;
      // Mirrors DynamicDigraphT::ApplyBatch: any non-self-loop op grows
      // the vertex set, applied or not.
      num_vertices = std::max(num_vertices, std::max(op.from, op.to) + 1);
      if (op.kind == EdgeOp::Kind::kInsert) {
        if (op.weight <= 0) continue;
        if constexpr (Graph::kWeighted) {
          edges[{op.from, op.to}] += op.weight;
        } else {
          edges[{op.from, op.to}] = 1;
        }
      } else {
        edges.erase({op.from, op.to});
      }
    }
  }

  Graph Build() const {
    std::vector<typename Graph::EdgeType> list;
    list.reserve(edges.size());
    for (const auto& [arc, weight] : edges) {
      if constexpr (Graph::kWeighted) {
        list.push_back(WeightedEdge{arc.first, arc.second, weight});
      } else {
        list.emplace_back(arc.first, arc.second);
      }
    }
    return Graph::FromEdges(num_vertices, std::move(list));
  }
};

// Asserts that the overlay's merged iteration enumerates, for every
// vertex, exactly the out-arcs (and weights, in the same ascending order)
// of the freshly built static graph — without compacting first. This is the
// bit-identity property DESIGN.md §14 pins down.
template <typename WeightPolicy>
void ExpectOverlayMatchesStatic(const DynamicDigraphT<WeightPolicy>& dyn,
                                const DigraphT<WeightPolicy>& ref) {
  ASSERT_EQ(dyn.NumVertices(), ref.NumVertices());
  ASSERT_EQ(dyn.NumEdges(), ref.NumEdges());
  ASSERT_EQ(dyn.TotalWeight(), ref.TotalWeight());
  using Arc = std::pair<VertexId, int64_t>;
  for (VertexId u = 0; u < ref.NumVertices(); ++u) {
    std::vector<Arc> overlay_out;
    dyn.ForEachOutEdge(
        u, [&](VertexId v, int64_t w) { overlay_out.emplace_back(v, w); });
    std::vector<Arc> static_out;
    const auto nbrs = ref.OutNeighbors(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      static_out.emplace_back(nbrs[k], ref.OutWeight(u, k));
    }
    ASSERT_EQ(overlay_out, static_out) << "out-arcs of " << u;
  }
}

EdgeBatch RandomBatch(uint32_t n, int ops, bool weighted_weights, Rng* rng) {
  EdgeBatch batch;
  batch.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    const VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (rng->NextBounded(100) < 35) {
      batch.push_back(EdgeOp::Delete(u, v));
    } else {
      const int64_t w =
          weighted_weights ? rng->NextInRange(1, 5) : 1;
      batch.push_back(EdgeOp::Insert(u, v, w));
    }
  }
  return batch;
}

template <typename WeightPolicy>
void RunRandomScheduleIdentity(uint64_t seed, CompactionPolicy policy,
                               int batches) {
  using Graph = DigraphT<WeightPolicy>;
  constexpr uint32_t n = 30;
  Rng rng(seed);

  std::vector<typename Graph::EdgeType> base_edges;
  for (int i = 0; i < 60; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if constexpr (Graph::kWeighted) {
      base_edges.push_back(WeightedEdge{u, v, rng.NextInRange(1, 4)});
    } else {
      base_edges.emplace_back(u, v);
    }
  }
  const Graph base = Graph::FromEdges(n, std::move(base_edges));

  DynamicDigraphT<WeightPolicy> dyn(base, policy);
  ReferenceModel<WeightPolicy> model;
  model.Seed(base);

  for (int b = 0; b < batches; ++b) {
    const EdgeBatch batch =
        RandomBatch(n, /*ops=*/12, Graph::kWeighted, &rng);
    dyn.ApplyBatch(batch);
    model.Apply(batch);
    const Graph ref = model.Build();
    ExpectOverlayMatchesStatic(dyn, ref);
    for (const EdgeOp& op : batch) {
      if (op.from == op.to) continue;
      const auto it = model.edges.find({op.from, op.to});
      EXPECT_EQ(dyn.EdgeWeight(op.from, op.to),
                it == model.edges.end() ? 0 : it->second);
    }
  }
  // Compacting afterwards must be a pure representation change.
  const int64_t version_before = dyn.version();
  dyn.Compact();
  EXPECT_EQ(dyn.version(), version_before);
  EXPECT_EQ(dyn.delta_entries(), 0);
  ExpectOverlayMatchesStatic(dyn, model.Build());
}

TEST(DynamicDigraphTest, RandomScheduleMatchesRebuiltStaticUnweighted) {
  CompactionPolicy no_auto;
  no_auto.auto_compact = false;  // every check runs through the delta path
  RunRandomScheduleIdentity<UnitWeight>(11, no_auto, /*batches=*/40);
}

TEST(DynamicDigraphTest, RandomScheduleMatchesRebuiltStaticWeighted) {
  CompactionPolicy no_auto;
  no_auto.auto_compact = false;
  RunRandomScheduleIdentity<Int64Weight>(12, no_auto, /*batches=*/40);
}

TEST(DynamicDigraphTest, IdentityHoldsAcrossFrequentCompactions) {
  CompactionPolicy eager;
  eager.min_delta_entries = 4;  // compact nearly every batch
  eager.max_delta_fraction = 0.01;
  RunRandomScheduleIdentity<UnitWeight>(13, eager, /*batches=*/30);
  RunRandomScheduleIdentity<Int64Weight>(14, eager, /*batches=*/30);
}

TEST(DynamicDigraphTest, AppliedCountSkipsNoOps) {
  const Digraph base = Digraph::FromEdges(4, {{0, 1}, {1, 2}});
  DynamicDigraph dyn(base);
  EXPECT_EQ(dyn.ApplyBatch({EdgeOp::Insert(2, 2)}), 0);   // self-loop
  EXPECT_EQ(dyn.ApplyBatch({EdgeOp::Insert(0, 1)}), 0);   // already present
  EXPECT_EQ(dyn.ApplyBatch({EdgeOp::Delete(3, 0)}), 0);   // absent
  EXPECT_EQ(dyn.ApplyBatch({EdgeOp::Insert(0, 1, 0)}), 0);  // weight <= 0
  EXPECT_EQ(dyn.version(), 4);  // every batch bumps, applied or not
  EXPECT_EQ(dyn.NumEdges(), 2);
  EXPECT_EQ(dyn.ApplyBatch({EdgeOp::Insert(2, 3), EdgeOp::Delete(0, 1)}), 2);
  EXPECT_EQ(dyn.NumEdges(), 2);
}

TEST(DynamicDigraphTest, RevertToBaseStateDropsTheDeltaEntry) {
  const Digraph base = Digraph::FromEdges(3, {{0, 1}, {1, 2}});
  DynamicDigraph dyn(base);
  dyn.ApplyBatch({EdgeOp::Delete(0, 1)});
  EXPECT_EQ(dyn.delta_entries(), 1);
  EXPECT_EQ(dyn.NumEdges(), 1);
  // Re-inserting restores exactly the base arc: the delta entry is erased
  // even though the touched lists still remember the neighbor.
  dyn.ApplyBatch({EdgeOp::Insert(0, 1)});
  EXPECT_EQ(dyn.delta_entries(), 0);
  EXPECT_EQ(dyn.NumEdges(), 2);
  std::vector<VertexId> out;
  dyn.ForEachOutEdge(0, [&](VertexId v, int64_t) { out.push_back(v); });
  EXPECT_EQ(out, std::vector<VertexId>{1});
}

TEST(DynamicDigraphTest, VertexSetGrowsWithOps) {
  const Digraph base = Digraph::FromEdges(3, {{0, 1}});
  DynamicDigraph dyn(base);
  dyn.ApplyBatch({EdgeOp::Insert(2, 7)});
  EXPECT_EQ(dyn.NumVertices(), 8u);
  EXPECT_EQ(dyn.EdgeWeight(2, 7), 1);
  // Even a no-op delete grows the id space (mirrors FromEdges taking a
  // vertex count independent of the arcs that survive normalization).
  dyn.ApplyBatch({EdgeOp::Delete(1, 11)});
  EXPECT_EQ(dyn.NumVertices(), 12u);
  const Digraph& snap = dyn.Snapshot();
  EXPECT_EQ(snap.NumVertices(), 12u);
  EXPECT_EQ(snap.NumEdges(), 2);
}

TEST(DynamicDigraphTest, AutoCompactionHonorsThePolicy) {
  const Digraph base = UniformDigraph(40, 200, 5);
  CompactionPolicy policy;
  policy.min_delta_entries = 8;
  policy.max_delta_fraction = 0.01;
  DynamicDigraph dyn(base, policy);
  Rng rng(99);
  EXPECT_EQ(dyn.compactions(), 0);
  for (int b = 0; b < 10; ++b) {
    dyn.ApplyBatch(RandomBatch(40, 16, false, &rng));
    EXPECT_LT(dyn.delta_entries(), 8 + 16);  // never far past the bound
  }
  EXPECT_GT(dyn.compactions(), 0);
}

}  // namespace
}  // namespace ddsgraph
