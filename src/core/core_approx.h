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
/// The sweep walks the skyline staircase corner to corner (for each
/// distinct y-level, one fixed-x peel finds the level and one transposed
/// fixed-y peel finds its right end), so every level is covered with two
/// O(n+m) peels. Corner x's strictly increase while y's strictly
/// decrease and x*y <= W (the total edge weight, = m unweighted), so there
/// are at most 2 sqrt(W) corners: O(sqrt(W) (n + m)) total, typically far
/// less.
///
/// The sweep is a template over `DigraphT<WeightPolicy>`: the weighted
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
  /// Number of decomposition peels executed (two per skyline level).
  int64_t sweeps = 0;

  bool Empty() const { return core.Empty(); }
};

/// Runs the 2-approximation. For an edgeless graph returns an empty result
/// with density 0. `pool`, when non-null with more than one worker, runs
/// the skyline walk speculatively batched (core/xy_core_decomposition.h);
/// the chosen core, densities and bounds are identical either way — only
/// `sweeps` reflects the peels the batched walk actually executed.
template <typename G>
CoreApproxResult CoreApprox(const G& g, ThreadPool* pool = nullptr);

extern template CoreApproxResult CoreApprox<Digraph>(const Digraph&,
                                                     ThreadPool*);
extern template CoreApproxResult CoreApprox<WeightedDigraph>(
    const WeightedDigraph&, ThreadPool*);

}  // namespace ddsgraph

#endif  // DDSGRAPH_CORE_CORE_APPROX_H_
