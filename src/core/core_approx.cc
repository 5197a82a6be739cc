#include "core/core_approx.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/xy_core_decomposition.h"
#include "dds/density.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ddsgraph {
namespace {

// Products x*y of weighted cores reach W^2 > 2^63 once W passes ~3e9.
using int128 = __int128;

// An x-range whose ends carry known y_max values and whose interior
// (a, b) is not yet searched. No interior x beats `bound` = (b-1)*ya:
// y_max is non-increasing, so y_max(x) <= ya and x <= b-1 there.
struct XInterval {
  int64_t a = 0;
  int64_t ya = 0;
  int64_t b = 0;
  int64_t yb = 0;
  int128 bound = 0;

  int64_t Mid() const { return a + (b - a) / 2; }
};

// Heap order: the largest bound on top; equal bounds open the smaller x
// first.
struct BoundOrder {
  bool operator()(const XInterval& lhs, const XInterval& rhs) const {
    if (lhs.bound != rhs.bound) return lhs.bound < rhs.bound;
    return lhs.a > rhs.a;
  }
};

}  // namespace

template <typename G>
CoreApproxResult CoreApprox(const G& g, ThreadPool* pool) {
  CoreApproxResult result;
  if (g.TotalWeight() == 0) return result;
  ThreadPool inline_pool(1);
  if (pool == nullptr) pool = &inline_pool;

  // Branch and bound over f(x) = x * y_max(x) (DESIGN.md §4). Inside one
  // staircase level f rises with x, so the maximum sits at a level's
  // right end, and among equal products the smallest x — the largest-y
  // corner — wins. Both rules depend on the graph only, so the answer is
  // the same whatever order the intervals are searched in.
  int128 best_product = 0;
  auto consider = [&](int64_t x, int64_t y) {
    const int128 product = static_cast<int128>(x) * y;
    if (product > best_product ||
        (product == best_product && x < result.best_x)) {
      best_product = product;
      result.best_x = x;
      result.best_y = y;
    }
  };
  // An interval is dead once its bound cannot beat the incumbent, or can
  // only tie it at a larger x (every interior x exceeds a).
  auto dead = [&](const XInterval& iv) {
    return iv.bound < best_product ||
           (iv.bound == best_product && iv.a >= result.best_x);
  };
  std::priority_queue<XInterval, std::vector<XInterval>, BoundOrder>
      open;
  auto push = [&](int64_t a, int64_t ya, int64_t b, int64_t yb) {
    // A one-level interval peaks at b, which is already evaluated.
    if (b - a < 2 || ya == yb) return;
    const XInterval iv{a, ya, b, yb, static_cast<int128>(b - 1) * ya};
    if (!dead(iv)) open.push(iv);
  };

  // Ends of the range: y_max(1), and y_max = 0 past the largest weighted
  // out-degree, where no S vertex can meet x.
  const int64_t y1 = MaxYForX(g, 1);
  result.sweeps = 1;
  consider(1, y1);
  push(1, y1, g.MaxWeightedOutDegree() + 1, 0);

  // Each round peels the midpoints of the best open intervals, one per
  // worker, and re-files the halves against the updated incumbent.
  const size_t batch_cap =
      static_cast<size_t>(std::min(pool->num_workers(), 16));
  std::vector<XInterval> batch;
  std::vector<int64_t> ys;
  while (!open.empty()) {
    batch.clear();
    while (!open.empty() && batch.size() < batch_cap) {
      const XInterval iv = open.top();
      open.pop();
      if (!dead(iv)) batch.push_back(iv);
    }
    ys.assign(batch.size(), 0);
    pool->ParallelFor(static_cast<int64_t>(batch.size()),
                      [&](int64_t j, int /*worker*/) {
                        ys[static_cast<size_t>(j)] =
                            MaxYForX(g, batch[static_cast<size_t>(j)].Mid());
                      });
    result.sweeps += static_cast<int64_t>(batch.size());
    for (size_t j = 0; j < batch.size(); ++j) {
      consider(batch[j].Mid(), ys[j]);
    }
    for (size_t j = 0; j < batch.size(); ++j) {
      const XInterval& iv = batch[j];
      push(iv.a, iv.ya, iv.Mid(), ys[j]);
      push(iv.Mid(), ys[j], iv.b, iv.yb);
    }
  }
  if (best_product == 0) return result;

  result.core = ComputeXyCore(g, result.best_x, result.best_y);
  CHECK(!result.core.Empty());
  result.density = PairDensity(g, result.core.s, result.core.t);
  result.lower_bound = std::sqrt(static_cast<double>(best_product));
  result.upper_bound = 2.0 * result.lower_bound;
  // The theory guarantees density >= sqrt(x y): every S vertex sends at
  // least x into T and every T vertex receives at least y, so the core's
  // weight w >= x|S| and w >= y|T|, hence w^2 / (|S||T|) >= x y. Audit the
  // two integer facts exactly; comparing the doubles would need a
  // tolerance, since at weights near 1e9 the two sides differ by an ulp.
  const int128 weight = PairWeight(g, result.core.s, result.core.t);
  CHECK(weight >= static_cast<int128>(result.best_x) * result.core.s.size() &&
        weight >= static_cast<int128>(result.best_y) * result.core.t.size())
      << "the [" << result.best_x << "," << result.best_y
      << "]-core is not a core";
  return result;
}

template CoreApproxResult CoreApprox<Digraph>(const Digraph&, ThreadPool*);
template CoreApproxResult CoreApprox<WeightedDigraph>(const WeightedDigraph&,
                                                      ThreadPool*);

}  // namespace ddsgraph
