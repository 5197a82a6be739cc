#ifndef DDSGRAPH_CORE_XY_CORE_H_
#define DDSGRAPH_CORE_XY_CORE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "util/epoch_set.h"

/// \file
/// The [x,y]-core of a directed graph, weighted or not.
///
/// Definition (DESIGN.md §2): the [x,y]-core of G is the unique maximal
/// pair (S, T), S, T ⊆ V (possibly overlapping), such that
///   * every u ∈ S has weighted out-degree into T at least x, and
///   * every v ∈ T has weighted in-degree from S at least y.
/// On the unweighted instantiation the weighted degrees are plain degrees,
/// giving the paper's original definition.
///
/// It generalizes the undirected k-core to the two-sided directed setting
/// and is the object that both the approximation algorithm (via the
/// max-x·y core) and the exact algorithm (via DDS containment) build on.
/// With integer weights every unweighted property transfers: unique
/// fixpoint, nestedness, reversal duality, and the density bounds with
/// w(E(S,T)) in place of |E(S,T)| (a non-empty weighted [x,y]-core has
/// weighted density >= sqrt(x*y)).
///
/// Computation is one peeling fixpoint, `ComputeXyCoreWithin`:
/// repeatedly delete S-side candidates whose restricted out-degree drops
/// below x and T-side candidates whose restricted in-degree drops below
/// y, in any order; the fixpoint is order-independent (tested) and
/// reached in time linear in the candidates and their incident edges.
/// `ComputeXyCore` is that peel over every vertex. Because any order
/// works, the peel needs only a violation work-stack — no min-key
/// extraction — so unlike the decomposition sweep and the greedy peels
/// it takes no PeelQueue (util/peel_queue.h) and is already optimal for
/// both weight policies.
///
/// All entry points are templates over `DigraphT<WeightPolicy>` — one peel
/// serves both problems — explicitly instantiated in xy_core.cc for the
/// two policies.

namespace ddsgraph {

/// The two sides of an [x,y]-core. Both vectors are sorted ascending.
/// For x,y >= 1 either both sides are empty or both are non-empty.
struct XyCore {
  std::vector<VertexId> s;
  std::vector<VertexId> t;

  bool Empty() const { return s.empty() && t.empty(); }
};

/// Computes the [x,y]-core of `g`: ComputeXyCoreWithin over the ascending
/// list of all vertices on a private scratch. x = 0 (resp. y = 0) disables
/// the S-side (resp. T-side) constraint, so e.g. the [0,0]-core is (V, V).
template <typename G>
XyCore ComputeXyCore(const G& g, int64_t x, int64_t y);

/// Reusable scratch for ComputeXyCoreWithin: epoch-stamped membership
/// marks plus per-vertex degree accumulators that are re-initialized only
/// for the candidates of each call. With it, a candidate-restricted core
/// costs O(|s_init| + |t_init| + edges incident to them) — no O(n)
/// allocation or scan per call, which is what keeps the exact engine's
/// per-guess core refinement proportional to the (tiny, core-pruned)
/// candidate sets instead of the whole graph (the E11 fix; DESIGN.md §7).
struct XyCoreScratch {
  EpochSet in_s;
  EpochSet in_t;
  std::vector<int64_t> dout;  ///< valid only where in_s is stamped
  std::vector<int64_t> din;   ///< valid only where in_t is stamped
  std::vector<std::pair<VertexId, int>> stack;
};

/// Computes the [x,y]-core of the pair-restricted graph: only vertices in
/// `s_init` may enter S and only vertices in `t_init` may enter T, and only
/// edges from `s_init` to `t_init` count. Because cores are nested, calling
/// this with the S/T sides of a weaker core gives the same result as
/// ComputeXyCore on the full graph (tested), in time proportional to the
/// smaller object (`scratch` carries the amortized per-vertex arrays).
/// The candidate lists must be duplicate-free (DCHECKed — degrees are
/// accumulated per list entry); the returned sides are ascending
/// whenever `s_init` / `t_init` are — the fixpoint is unique and
/// membership is tested in input order.
template <typename G>
XyCore ComputeXyCoreWithin(const G& g, int64_t x, int64_t y,
                           const std::vector<VertexId>& s_init,
                           const std::vector<VertexId>& t_init,
                           XyCoreScratch* scratch);

/// Validates the defining property: every u in core.s has weighted
/// out-degree >= x into core.t and every v in core.t weighted in-degree
/// >= y from core.s. Used by tests and DCHECK-style audits.
template <typename G>
bool IsValidXyCore(const G& g, const XyCore& core, int64_t x, int64_t y);

extern template XyCore ComputeXyCore<Digraph>(const Digraph&, int64_t,
                                              int64_t);
extern template XyCore ComputeXyCore<WeightedDigraph>(const WeightedDigraph&,
                                                      int64_t, int64_t);
extern template XyCore ComputeXyCoreWithin<Digraph>(
    const Digraph&, int64_t, int64_t, const std::vector<VertexId>&,
    const std::vector<VertexId>&, XyCoreScratch*);
extern template XyCore ComputeXyCoreWithin<WeightedDigraph>(
    const WeightedDigraph&, int64_t, int64_t, const std::vector<VertexId>&,
    const std::vector<VertexId>&, XyCoreScratch*);
extern template bool IsValidXyCore<Digraph>(const Digraph&, const XyCore&,
                                            int64_t, int64_t);
extern template bool IsValidXyCore<WeightedDigraph>(const WeightedDigraph&,
                                                    const XyCore&, int64_t,
                                                    int64_t);

}  // namespace ddsgraph

#endif  // DDSGRAPH_CORE_XY_CORE_H_
