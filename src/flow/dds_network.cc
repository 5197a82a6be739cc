#include "flow/dds_network.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ddsgraph {

template <typename G>
DdsNetwork BuildDdsNetwork(const G& g,
                           const std::vector<VertexId>& s_candidates,
                           const std::vector<VertexId>& t_candidates,
                           double sqrt_ratio, double density_guess,
                           DdsBuildScratch* scratch) {
  CHECK_GT(sqrt_ratio, 0.0);
  CHECK_GE(density_guess, 0.0);
  CHECK(scratch != nullptr);

  // Membership marks and, for B-side vertices, their local index, all
  // epoch-stamped in the scratch so this build does no O(n) work.
  scratch->BeginBuild(g.NumVertices());
  for (VertexId v : t_candidates) {
    CHECK_LT(v, g.NumVertices());
    scratch->MarkT(v);
  }

  DdsNetwork out;
  out.sqrt_ratio = sqrt_ratio;
  out.density_guess = density_guess;

  // Pass 1: which candidate vertices actually carry pair edges. Vertices
  // with zero restricted (weighted) degree can never enter an optimal pair
  // at g > 0 and are dropped to keep the network minimal.
  std::vector<int64_t> restricted_out;
  restricted_out.reserve(s_candidates.size());
  for (VertexId u : s_candidates) {
    CHECK_LT(u, g.NumVertices());
    int64_t deg = 0;
    const auto nbrs = g.OutNeighbors(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      if (scratch->IsT(nbrs[k])) {
        deg += g.OutWeight(u, k);
        scratch->MarkBUsed(nbrs[k]);
      }
    }
    restricted_out.push_back(deg);
    out.num_pair_edges += deg;
  }
  for (VertexId v : t_candidates) {
    if (scratch->IsBUsed(v)) {
      scratch->SetBIndex(v, static_cast<uint32_t>(out.b_vertices.size()));
      out.b_vertices.push_back(v);
    }
  }
  std::vector<VertexId> a_kept;
  std::vector<int64_t> a_deg;
  for (size_t i = 0; i < s_candidates.size(); ++i) {
    if (restricted_out[i] > 0) {
      a_kept.push_back(s_candidates[i]);
      a_deg.push_back(restricted_out[i]);
    }
  }
  out.a_vertices = std::move(a_kept);

  // Pass 2: materialize the network.
  const uint32_t num_nodes = out.NumNodes();
  out.net = FlowNetwork(num_nodes);
  out.source = 0;
  out.sink = 1;
  const double cap_a_to_sink = density_guess / (2.0 * sqrt_ratio);
  const double cap_b_to_sink = density_guess * sqrt_ratio / 2.0;

  out.a_sink_arcs.reserve(out.a_vertices.size());
  out.b_sink_arcs.reserve(out.b_vertices.size());
  out.source_arcs.reserve(out.a_vertices.size());
  for (size_t i = 0; i < out.a_vertices.size(); ++i) {
    const uint32_t a_node = out.ANode(i);
    out.source_arcs.push_back(out.net.AddEdge(
        out.source, a_node, static_cast<FlowCap>(a_deg[i])));
    out.a_sink_arcs.push_back(out.net.AddEdge(a_node, out.sink,
                                              cap_a_to_sink));
    const VertexId u = out.a_vertices[i];
    const auto nbrs = g.OutNeighbors(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      if (scratch->IsT(nbrs[k])) {
        const uint32_t b_node = out.BNode(scratch->BIndex(nbrs[k]));
        out.net.AddEdge(a_node, b_node,
                        static_cast<FlowCap>(g.OutWeight(u, k)));
      }
    }
  }
  for (size_t j = 0; j < out.b_vertices.size(); ++j) {
    out.b_sink_arcs.push_back(out.net.AddEdge(out.BNode(j), out.sink,
                                              cap_b_to_sink));
  }
  // Sort the arcs into CSR while the arena is cache-hot; Reparameterize
  // touches only capacities, so the layout stays valid across the whole
  // parametric guess sequence.
  out.net.Finalize();
  return out;
}

template DdsNetwork BuildDdsNetwork<Digraph>(const Digraph&,
                                             const std::vector<VertexId>&,
                                             const std::vector<VertexId>&,
                                             double, double,
                                             DdsBuildScratch*);
template DdsNetwork BuildDdsNetwork<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, double, double, DdsBuildScratch*);

void DdsNetwork::Reparameterize(double new_density_guess) {
  CHECK_GE(new_density_guess, 0.0);
  CHECK_GT(sqrt_ratio, 0.0);
  CHECK_EQ(source_arcs.size(), a_sink_arcs.size());
  density_guess = new_density_guess;
  const FlowCap cap_a_to_sink = new_density_guess / (2.0 * sqrt_ratio);
  const FlowCap cap_b_to_sink = new_density_guess * sqrt_ratio / 2.0;
  // A side: the A node's whole inflow arrives over its source arc, so its
  // surplus drains in O(1) by cancelling that much source-arc flow.
  for (size_t i = 0; i < a_sink_arcs.size(); ++i) {
    const FlowCap excess = net.SetArcCapacity(a_sink_arcs[i], cap_a_to_sink);
    if (excess > 0) {
      DCHECK_GE(net.Residual(source_arcs[i] ^ 1) + kFlowEps, excess);
      net.Push(source_arcs[i] ^ 1, excess);
    }
  }
  // B side: the B node's inflow arrives over A->B arcs; its surplus walks
  // back over the flow-carrying ones (their reverses, the odd arcs in its
  // adjacency) and then over each A node's source arc. Conservation at
  // the A nodes guarantees the source arcs always carry enough.
  for (uint32_t arc : b_sink_arcs) {
    FlowCap excess = net.SetArcCapacity(arc, cap_b_to_sink);
    if (excess <= 0) continue;
    const uint32_t b_node = net.To(arc ^ 1);
    const uint32_t end = net.EndOut(b_node);
    for (uint32_t k = net.FirstOut(b_node); k < end && excess > kFlowEps;
         ++k) {
      const uint32_t e = net.OutArc(k);
      if ((e & 1) == 0) continue;  // forward sink arc, not a drain path
      const FlowCap x = std::min(excess, net.Residual(e));
      if (x <= 0) continue;
      const uint32_t a_node = net.To(e);
      const size_t a_index = a_node - 2;  // DDS layout: ANode(i) = 2 + i
      DCHECK_LT(a_index, source_arcs.size());
      net.Push(e, x);
      DCHECK_GE(net.Residual(source_arcs[a_index] ^ 1) + kFlowEps, x);
      net.Push(source_arcs[a_index] ^ 1, x);
      excess -= x;
    }
    CHECK_LE(excess, kFlowEps)
        << "drain failed: conservation cannot be restored";
  }
}

ExtractedPair ExtractPairFromCut(const DdsNetwork& network,
                                 const std::vector<bool>& source_side) {
  CHECK_EQ(source_side.size(), network.net.NumNodes());
  ExtractedPair pair;
  for (size_t i = 0; i < network.a_vertices.size(); ++i) {
    if (source_side[network.ANode(i)]) {
      pair.s.push_back(network.a_vertices[i]);
    }
  }
  for (size_t j = 0; j < network.b_vertices.size(); ++j) {
    if (source_side[network.BNode(j)]) {
      pair.t.push_back(network.b_vertices[j]);
    }
  }
  std::sort(pair.s.begin(), pair.s.end());
  std::sort(pair.t.begin(), pair.t.end());
  return pair;
}

}  // namespace ddsgraph
