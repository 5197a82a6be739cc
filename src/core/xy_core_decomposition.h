#ifndef DDSGRAPH_CORE_XY_CORE_DECOMPOSITION_H_
#define DDSGRAPH_CORE_XY_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"

/// \file
/// Decomposition of the [x,y]-core space.
///
/// Cores are nested in both coordinates, so the non-empty region of the
/// (x, y) plane is a staircase described by y_max(x) — the largest y with a
/// non-empty [x,y]-core — which is non-increasing in x. The approximation
/// algorithm needs the staircase point maximizing x*y; it searches for it
/// with `MaxYForX` peels directly (core/core_approx.h), while
/// `CoreSkyline` lists the whole staircase.
///
/// One fixed-x sweep serves both per-x questions: enforce the
/// x-constraint once, then raise y with a policy-selected peel queue
/// (util/peel_queue.h) over (weighted) in-degrees, jumping past empty
/// levels — a monotone bucket queue at unit weights (the directed
/// analogue of Batagelj-Zaversnik k-core decomposition, O(n + m +
/// max_in_degree) per x) and, at integer weights, the bucket array when
/// the weighted-degree range is dense enough and a lazy-deletion heap
/// otherwise (O((n + m) log n) per x, independent of the range).
/// `MaxYForX` reads only the last level the sweep reaches;
/// `ComputeFixedXCoreNumbers` also stamps every vertex the sweep peels
/// with the last level whose core still held it. `MaxYForX` is a
/// template over `DigraphT<WeightPolicy>` — the same sweep drives the
/// unweighted and the weighted core approximation (core/core_approx.h) —
/// explicitly instantiated here for the two policies.

namespace ddsgraph {

class ThreadPool;

/// A staircase corner of the non-empty core region.
struct SkylinePoint {
  int64_t x = 0;
  int64_t y = 0;  ///< y_max(x)
};

/// Returns the largest y such that the (weighted) [x,y]-core of `g` is
/// non-empty, or 0 when even the [x,1]-core is empty. Requires x >= 1.
template <typename G>
int64_t MaxYForX(const G& g, int64_t x);

extern template int64_t MaxYForX<Digraph>(const Digraph&, int64_t);
extern template int64_t MaxYForX<WeightedDigraph>(const WeightedDigraph&,
                                                  int64_t);

/// The staircase y_max(x), one point per distinct y-level: each returned
/// point is the level's right-end corner (x_max(y), y), so x strictly
/// increases and y strictly decreases across the result and every point
/// is both y-maximal at its x and x-maximal at its y. The walk steps
/// corner to corner with MaxYForX on the graph and its transpose — one
/// pair of peels per distinct weighted-degree threshold rather than per
/// integer x, which is what keeps the weighted instantiation
/// O(#levels * (n + m)) instead of O(W) peels. With
/// x_limit >= 1 the walk stops at x = x_limit; a level reaching past the
/// cap is reported truncated at (x_limit, y), still realized and
/// y-maximal but not x-maximal.
///
/// The walk peels a batch of consecutive x values per round, one per
/// `pool` worker (DESIGN.md §11), reads every level boundary inside the
/// batch straight off the monotone y sequence (those corners need no
/// transpose peel at all), and pays one transpose jump only for the level
/// still open at the batch's end. A null `pool` runs one x per round on
/// the caller. The staircase is a pure function of the graph, so the
/// returned points are identical at every worker count — the batch size
/// changes only which peels are executed.
/// `peels`, when non-null, receives the number of decomposition peels
/// executed.
template <typename G>
std::vector<SkylinePoint> CoreSkyline(const G& g, int64_t x_limit = -1,
                                      ThreadPool* pool = nullptr,
                                      int64_t* peels = nullptr);

extern template std::vector<SkylinePoint> CoreSkyline<Digraph>(
    const Digraph&, int64_t, ThreadPool*, int64_t*);
extern template std::vector<SkylinePoint> CoreSkyline<WeightedDigraph>(
    const WeightedDigraph&, int64_t, ThreadPool*, int64_t*);

/// Per-vertex decomposition at fixed x (the directed analogue of core
/// numbers): s_number[u] is the largest y such that u belongs to the S
/// side of the non-empty [x,y]-core (-1 if u is not even in the
/// [x,0]-core's S side), and t_number[v] likewise for the T side (every
/// vertex is in the [x,0]-core's T side, so t_number >= 0). By
/// nestedness, membership in the [x,y]-core is exactly {s,t}_number >= y.
struct FixedXCoreNumbers {
  std::vector<int64_t> s_number;
  std::vector<int64_t> t_number;
  int64_t y_max = 0;  ///< MaxYForX(g, x)
};

/// Computes the fixed-x decomposition in one run of MaxYForX's sweep,
/// O(n + m + max_in_degree). Requires x >= 1.
FixedXCoreNumbers ComputeFixedXCoreNumbers(const Digraph& g, int64_t x);

}  // namespace ddsgraph

#endif  // DDSGRAPH_CORE_XY_CORE_DECOMPOSITION_H_
