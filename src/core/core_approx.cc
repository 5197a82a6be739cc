#include "core/core_approx.h"

#include <algorithm>
#include <cmath>

#include "core/xy_core_decomposition.h"
#include "dds/density.h"
#include "util/logging.h"

namespace ddsgraph {

template <typename G>
CoreApproxResult CoreApprox(const G& g, ThreadPool* pool) {
  CoreApproxResult result;
  if (g.TotalWeight() == 0) return result;

  // The skyline corner walk (core/xy_core_decomposition.cc) yields one
  // point (x_max(y), y) per distinct y-level with two peels per level —
  // Corners have strictly increasing x and strictly decreasing y, so
  // their count K satisfies (K/2)^2 <= max product <= W, i.e.
  // K <= 2 sqrt(W) — the O(sqrt(W) (n+m)) bound — while real graphs have
  // far fewer levels. A wider pool peels bigger batches of x values;
  // the corners (and hence everything below) are identical, only the
  // executed-peel count differs.
  const std::vector<SkylinePoint> skyline =
      CoreSkyline(g, /*x_limit=*/-1, pool, &result.sweeps);

  // Each corner dominates every product on its level, so scanning the
  // corners covers all non-empty cores; first strictly-better wins, which
  // keeps the largest-y corner on product ties.
  int64_t best_product = 0;
  for (const SkylinePoint& corner : skyline) {
    if (corner.x * corner.y > best_product) {
      best_product = corner.x * corner.y;
      result.best_x = corner.x;
      result.best_y = corner.y;
    }
  }
  if (best_product == 0) return result;

  result.core = ComputeXyCore(g, result.best_x, result.best_y);
  CHECK(!result.core.Empty());
  result.density = PairDensity(g, result.core.s, result.core.t);
  result.lower_bound = std::sqrt(static_cast<double>(best_product));
  result.upper_bound = 2.0 * result.lower_bound;
  // The theory guarantees density >= sqrt(x y); keep that as a live audit.
  CHECK_GE(result.density + 1e-9, result.lower_bound);
  return result;
}

template CoreApproxResult CoreApprox<Digraph>(const Digraph&, ThreadPool*);
template CoreApproxResult CoreApprox<WeightedDigraph>(const WeightedDigraph&,
                                                      ThreadPool*);

}  // namespace ddsgraph
