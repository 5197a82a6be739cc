#ifndef DDSGRAPH_CORE_CORE_APPROX_H_
#define DDSGRAPH_CORE_CORE_APPROX_H_

#include <cstdint>
#include <vector>

#include "core/xy_core.h"
#include "graph/digraph.h"

/// \file
/// CoreApprox — the paper's core-based 2-approximation for DDS.
///
/// Let (x°, y°) maximize x*y over non-empty [x,y]-cores. Then (DESIGN.md §2)
///   * the [x°,y°]-core has density >= sqrt(x° y°), and
///   * rho_opt <= 2 sqrt(x° y°)   (DDS containment in cores),
/// so returning the [x°,y°]-core is a deterministic 1/2-approximation.
///
/// The search never builds the staircase. It runs branch and bound over
/// f(x) = x * y_max(x) for x in [1, D_out], D_out the largest weighted
/// out-degree, evaluating y_max with one `MaxYForX` peel per probed x
/// (DESIGN.md §4). Inside one staircase level f rises with x, so the
/// maximum sits at a level's right end; and y_max is non-increasing, so
/// every product strictly inside an x-interval (a, b) is at most
/// (b-1) * y_max(a). Intervals that cannot beat the best product so far
/// are dropped, the rest are split at their midpoint, best bound first.
/// On real graphs this takes a few dozen O(n + m) peels where the full
/// staircase (`CoreSkyline`) takes two per level. Products are compared
/// in 128 bits, so weighted cores whose x*y passes 2^63 stay exact.
///
/// CoreApprox is a template over `DigraphT<WeightPolicy>`: the weighted
/// instantiation `CoreApprox(const WeightedDigraph&)` is the weighted
/// 2-approximation, with identical guarantees under w(E(S,T)).

namespace ddsgraph {

class ThreadPool;

struct CoreApproxResult {
  XyCore core;         ///< the [best_x, best_y]-core (S and T sides)
  int64_t best_x = 0;  ///< x of the max-product core
  int64_t best_y = 0;  ///< y of the max-product core
  double density = 0;  ///< rho(core.s, core.t)
  /// Certified bounds: density <= rho_opt <= upper_bound.
  double lower_bound = 0;  ///< sqrt(best_x * best_y)
  double upper_bound = 0;  ///< 2 sqrt(best_x * best_y)
  /// Number of `MaxYForX` peels the search ran (the final core
  /// extraction is not counted).
  int64_t sweeps = 0;

  bool Empty() const { return core.Empty(); }
};

/// Runs the 2-approximation. For an edgeless graph returns an empty result
/// with density 0. Each search round peels the midpoints of up to one open
/// interval per `pool` worker (at most 16; a null `pool` runs one per round
/// on the caller). Among cores of equal product the one with the largest
/// y wins, so the chosen core, densities and bounds are a function of the
/// graph alone and identical at every worker count; only `sweeps` depends
/// on it.
template <typename G>
CoreApproxResult CoreApprox(const G& g, ThreadPool* pool = nullptr);

extern template CoreApproxResult CoreApprox<Digraph>(const Digraph&,
                                                     ThreadPool*);
extern template CoreApproxResult CoreApprox<WeightedDigraph>(
    const WeightedDigraph&, ThreadPool*);

}  // namespace ddsgraph

#endif  // DDSGRAPH_CORE_CORE_APPROX_H_
