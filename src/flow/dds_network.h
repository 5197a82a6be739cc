#ifndef DDSGRAPH_FLOW_DDS_NETWORK_H_
#define DDSGRAPH_FLOW_DDS_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "flow/flow_network.h"
#include "graph/digraph.h"
#include "util/epoch_set.h"

/// \file
/// The DDS feasibility flow network N(G, a, g), weight-generic.
///
/// For a ratio guess `a` and density guess `g`, the exact solvers must
/// decide whether some pair (S, T) has *linearized* density
///
///   2 w(E(S,T)) / (|S|/sqrt(a) + sqrt(a) |T|)  >  g,
///
/// where w sums edge weights (the edge count on the unweighted
/// instantiation). Construction (DESIGN.md §5): nodes {s, t} ∪ A ∪ B with
/// A a node per candidate source-side vertex and B per candidate
/// target-side vertex; arcs
///   s  -> u_A  cap w_out(u)            (weighted out-degree into B-side)
///   u_A-> v_B  cap w(u, v)             for each graph edge (u, v)
///   u_A-> t    cap g / (2 sqrt(a))
///   v_B-> t    cap g * sqrt(a) / 2
///
/// A cut keeping {s} ∪ S_A ∪ T_B on the source side has capacity
/// W' − w(E(S,T)) + (g/2)(|S|/√a + √a|T|) where W' is the total candidate
/// pair weight, so  mincut < W'  ⇔  a feasible (S,T) exists, and the
/// source side of the min cut is a maximizer of
/// w(E(S,T)) − (g/2)(|S|/√a + √a|T|).
///
/// The candidate sets default to all of V; the core-based solver passes the
/// S-/T-sides of an [x,y]-core, which is how the networks shrink across
/// binary-search iterations (experiment E8).
///
/// Only the two sink-side capacity families depend on the density guess g,
/// so a network built once per candidate set can be retargeted to a new
/// guess in O(|A|+|B|) with Reparameterize instead of being rebuilt — the
/// parametric probe engine of DESIGN.md §7.

namespace ddsgraph {

/// Reusable scratch space for BuildDdsNetwork. The builder needs three
/// per-vertex maps (T-membership, B-side usage, B-side index); allocating
/// and clearing them per call costs O(n) even when the core-pruned
/// candidate sets are tiny. The scratch epoch-stamps the marks instead:
/// one shared allocation, O(1) clearing, and per-build cost proportional
/// to the candidate sets. Owned by the probe workspace and reused across
/// every network built during a solve.
class DdsBuildScratch {
 public:
  /// Starts a new build over a graph with `num_vertices` vertices,
  /// invalidating all marks from previous builds in O(1) (amortized: the
  /// stamp arrays grow to the largest graph seen).
  void BeginBuild(uint32_t num_vertices) {
    t_members_.Clear(num_vertices);
    b_used_.Clear(num_vertices);
    if (b_index_.size() < num_vertices) b_index_.resize(num_vertices, 0);
  }

  bool IsT(VertexId v) const { return t_members_.Contains(v); }
  void MarkT(VertexId v) { t_members_.Insert(v); }
  bool IsBUsed(VertexId v) const { return b_used_.Contains(v); }
  void MarkBUsed(VertexId v) { b_used_.Insert(v); }
  uint32_t BIndex(VertexId v) const { return b_index_[v]; }
  void SetBIndex(VertexId v, uint32_t index) { b_index_[v] = index; }

 private:
  EpochSet t_members_;             ///< v is a T-side candidate
  EpochSet b_used_;                ///< v received a B-side node
  std::vector<uint32_t> b_index_;  ///< local index, valid iff IsBUsed
};

/// A DDS network together with the node layout needed to interpret cuts.
struct DdsNetwork {
  FlowNetwork net;
  uint32_t source = 0;
  uint32_t sink = 0;
  /// Original vertex ids of A-side nodes; node id of a_vertices[i] is
  /// ANode(i). Vertices with no candidate out-edge are omitted.
  std::vector<VertexId> a_vertices;
  /// Original vertex ids of B-side nodes; vertices with no candidate
  /// in-edge are omitted.
  std::vector<VertexId> b_vertices;
  /// Arc ids of the guess-dependent sink arcs, parallel to a_vertices /
  /// b_vertices — the only capacities Reparameterize needs to touch.
  std::vector<uint32_t> a_sink_arcs;
  std::vector<uint32_t> b_sink_arcs;
  /// Arc ids of the source arcs s -> ANode(i), parallel to a_vertices;
  /// the drain paths of Reparameterize run over their reverses.
  std::vector<uint32_t> source_arcs;
  /// The (a, g) parameters the network is currently built for.
  double sqrt_ratio = 0;
  double density_guess = 0;
  /// Total candidate pair weight W' = w(E(S_cand, T_cand)) — the plain
  /// count m' on the unweighted instantiation; the feasibility threshold
  /// of the min cut.
  int64_t num_pair_edges = 0;

  uint32_t ANode(size_t i) const { return 2 + static_cast<uint32_t>(i); }
  uint32_t BNode(size_t i) const {
    return 2 + static_cast<uint32_t>(a_vertices.size() + i);
  }
  /// Total node count (2 + |A| + |B|), the "flow network size" metric that
  /// experiment E8 tracks per iteration.
  uint32_t NumNodes() const {
    return 2 + static_cast<uint32_t>(a_vertices.size() + b_vertices.size());
  }

  /// Retargets the network to a new density guess in O(|A|+|B|), touching
  /// only the sink-arc capacities and preserving any flow the network
  /// already carries. When the guess rises the capacities only grow, so
  /// the existing flow stays feasible and a warm-started Dinic::Resolve
  /// finds the new max flow incrementally; when it falls, excess flow on
  /// over-saturated sink arcs is drained back to the source first
  /// (DESIGN.md §7). The drains exploit the layout instead of searching
  /// residual paths: an A node's surplus returns over the reverse of its
  /// unique source arc in O(1), a B node's walks back over its incoming
  /// flow-carrying A->B arcs and then those A nodes' source arcs.
  void Reparameterize(double new_density_guess);
};

/// The (S, T) pair read off a feasible min cut, in original vertex ids.
struct ExtractedPair {
  std::vector<VertexId> s;
  std::vector<VertexId> t;
};

/// Builds N(G, a, g) restricted to the candidate sides. `s_candidates` /
/// `t_candidates` are vertex lists in original ids (pass all vertices for
/// the unpruned baseline). `sqrt_ratio` is sqrt(a); `density_guess` is g.
/// `scratch` amortizes the per-vertex working maps across builds. A
/// template over `DigraphT<WeightPolicy>`: edge weights become the A->B
/// arc capacities, so the same layout (and the same Reparameterize)
/// serves both problems.
template <typename G>
DdsNetwork BuildDdsNetwork(const G& g,
                           const std::vector<VertexId>& s_candidates,
                           const std::vector<VertexId>& t_candidates,
                           double sqrt_ratio, double density_guess,
                           DdsBuildScratch* scratch);

extern template DdsNetwork BuildDdsNetwork<Digraph>(
    const Digraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, double, double, DdsBuildScratch*);
extern template DdsNetwork BuildDdsNetwork<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, double, double, DdsBuildScratch*);

/// Convenience overload with a private single-use scratch.
template <typename G>
DdsNetwork BuildDdsNetwork(const G& g,
                           const std::vector<VertexId>& s_candidates,
                           const std::vector<VertexId>& t_candidates,
                           double sqrt_ratio, double density_guess) {
  DdsBuildScratch scratch;
  return BuildDdsNetwork(g, s_candidates, t_candidates, sqrt_ratio,
                         density_guess, &scratch);
}

/// Reads the (S, T) pair off the source side of a min cut of `network`.
/// `source_side` must come from SourceSideOfMinCut on the solved network.
ExtractedPair ExtractPairFromCut(const DdsNetwork& network,
                                 const std::vector<bool>& source_side);

}  // namespace ddsgraph

#endif  // DDSGRAPH_FLOW_DDS_NETWORK_H_
