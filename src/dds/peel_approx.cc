#include "dds/peel_approx.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/peel_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// One greedy pass at a fixed ratio. If `record_removals` is non-null, the
// removal sequence (vertex, side) is appended so the caller can replay the
// pass and materialize the best intermediate pair.
struct PassResult {
  double best_density = 0;
  int64_t best_step = -1;  ///< number of removals before the best pair
};

template <typename G>
PassResult PeelPass(const G& g, double sqrt_a,
                    std::vector<std::pair<VertexId, int>>* record_removals) {
  const uint32_t n = g.NumVertices();
  std::vector<bool> in_s(n, true);
  std::vector<bool> in_t(n, true);
  std::vector<int64_t> dout(n);
  std::vector<int64_t> din(n);
  PeelQueue<G> s_queue(n, g.MaxWeightedOutDegree());
  PeelQueue<G> t_queue(n, g.MaxWeightedInDegree());
  for (VertexId v = 0; v < n; ++v) {
    dout[v] = g.WeightedOutDegree(v);
    din[v] = g.WeightedInDegree(v);
    s_queue.Insert(v, dout[v]);
    t_queue.Insert(v, din[v]);
  }
  int64_t weight = g.TotalWeight();  // w(E(S,T)) of the surviving pair
  int64_t n_s = n;
  int64_t n_t = n;

  PassResult result;
  auto consider = [&](int64_t step) {
    if (n_s == 0 || n_t == 0 || weight == 0) return;
    const double density =
        static_cast<double>(weight) /
        std::sqrt(static_cast<double>(n_s) * static_cast<double>(n_t));
    if (density > result.best_density) {
      result.best_density = density;
      result.best_step = step;
    }
  };

  consider(0);
  int64_t step = 0;
  while (n_s > 0 && n_t > 0) {
    const auto s_min = s_queue.PeekMinKey();
    const auto t_min = t_queue.PeekMinKey();
    // Weighted comparison: removing the S vertex costs s_min edge weight
    // per weight 1/sqrt(a); the T vertex t_min edge weight per sqrt(a).
    bool take_s;
    if (!s_min.has_value()) {
      take_s = false;
    } else if (!t_min.has_value()) {
      take_s = true;
    } else {
      take_s = static_cast<double>(*s_min) * sqrt_a <=
               static_cast<double>(*t_min) / sqrt_a;
    }
    if (take_s) {
      const auto popped = s_queue.PopMin();
      CHECK(popped.has_value());
      const VertexId u = popped->first;
      in_s[u] = false;
      --n_s;
      const auto nbrs = g.OutNeighbors(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        if (in_t[v]) {
          const int64_t w = g.OutWeight(u, i);
          weight -= w;
          din[v] -= w;
          t_queue.DecreaseKey(v, din[v]);
        }
      }
      if (record_removals != nullptr) record_removals->emplace_back(u, 0);
    } else {
      const auto popped = t_queue.PopMin();
      CHECK(popped.has_value());
      const VertexId v = popped->first;
      in_t[v] = false;
      --n_t;
      const auto nbrs = g.InNeighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (in_s[u]) {
          const int64_t w = g.InWeight(v, i);
          weight -= w;
          dout[u] -= w;
          s_queue.DecreaseKey(u, dout[u]);
        }
      }
      if (record_removals != nullptr) record_removals->emplace_back(v, 1);
    }
    ++step;
    consider(step);
  }
  return result;
}

}  // namespace

template <typename G>
DdsSolution PeelApprox(const G& g, const PeelApproxOptions& options) {
  CHECK_GT(options.epsilon, 0.0);
  CHECK_GE(options.threads, 1);
  WallTimer timer;
  DdsSolution solution;
  if (g.NumEdges() == 0) return solution;
  const uint32_t n = g.NumVertices();

  // Geometric ladder over [1/n, n], inclusive of both endpoints. The
  // ladder covers the |S|/|T| ratio space, which does not depend on the
  // weights — only the per-pass objective does.
  std::vector<double> ladder;
  const double lo = 1.0 / static_cast<double>(n);
  const double hi = static_cast<double>(n);
  for (double a = lo; a < hi; a *= 1.0 + options.epsilon) ladder.push_back(a);
  ladder.push_back(hi);
  solution.stats.ratios_probed = static_cast<int64_t>(ladder.size());

  // A rung's ratio a enters a pass only through PeelPass's test
  // s*sqrt(a) <= t/sqrt(a), i.e. s*a <= t, on integer keys s <= D_out and
  // t <= D_in. It ignores a when s = 0 (take S) or t = 0 < s (take T);
  // with s, t >= 1 it always takes S when a*D_out < 1 and always takes T
  // when a > D_in. So every rung of the run below 1/D_out peels exactly
  // like the run's first rung, and likewise above D_in: only each end
  // run's first rung is peeled, under its own ladder index, which is the
  // one the (density desc, rung asc) merge below would pick anyway. The
  // relative margin keeps rounding from flipping a comparison; a rung
  // near either boundary is simply peeled (DESIGN.md §4).
  const double d_out = static_cast<double>(g.MaxWeightedOutDegree());
  const double d_in = static_cast<double>(g.MaxWeightedInDegree());
  // -1 below 1/D_out (always S), +1 above D_in (always T), 0 in between.
  auto end_run = [&](double a) {
    if (a * d_out < 1.0 - 1e-9) return -1;
    return a > d_in * (1.0 + 1e-9) ? 1 : 0;
  };
  std::vector<int64_t> rungs;
  for (size_t i = 0; i < ladder.size(); ++i) {
    const int run = end_run(ladder[i]);
    if (i > 0 && run != 0 && run == end_run(ladder[i - 1])) continue;
    rungs.push_back(static_cast<int64_t>(i));
  }

  // The rungs are independent read-only passes, fanned out across the
  // pool. Each worker keeps its champion pass *with the recorded removal
  // sequence*, so the winner is materialized from the recording instead
  // of being peeled a second time, and merging champions under
  // (density desc, rung index asc) reproduces the sequential loop's
  // first-strictly-better tie-break for every thread count.
  struct Champion {
    double density = 0;
    int64_t rung = std::numeric_limits<int64_t>::max();
    int64_t best_step = -1;
    std::vector<std::pair<VertexId, int>> removals;
  };
  ThreadPool pool(options.threads);
  std::vector<Champion> champions(static_cast<size_t>(pool.num_workers()));
  std::vector<std::vector<std::pair<VertexId, int>>> scratch(
      static_cast<size_t>(pool.num_workers()));
  pool.ParallelFor(
      static_cast<int64_t>(rungs.size()), [&](int64_t k, int worker) {
        const int64_t i = rungs[static_cast<size_t>(k)];
        auto& removals = scratch[static_cast<size_t>(worker)];
        removals.clear();
        const double a = ladder[static_cast<size_t>(i)];
        const PassResult pass = PeelPass(g, std::sqrt(a), &removals);
        Champion& champion = champions[static_cast<size_t>(worker)];
        if (pass.best_density > champion.density ||
            (pass.best_density == champion.density && pass.best_density > 0 &&
             i < champion.rung)) {
          champion.density = pass.best_density;
          champion.rung = i;
          champion.best_step = pass.best_step;
          champion.removals.swap(removals);
        }
      });
  const Champion* best = &champions[0];
  for (const Champion& champion : champions) {
    if (champion.density > best->density ||
        (champion.density == best->density && champion.rung < best->rung)) {
      best = &champion;
    }
  }

  if (best->density > 0) {
    // Materialize the champion's best intermediate pair from its recorded
    // removal prefix.
    CHECK_GE(best->best_step, 0);
    std::vector<bool> in_s(n, true);
    std::vector<bool> in_t(n, true);
    for (int64_t i = 0; i < best->best_step; ++i) {
      const auto [v, side] = best->removals[static_cast<size_t>(i)];
      (side == 0 ? in_s : in_t)[v] = false;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (in_s[v]) solution.pair.s.push_back(v);
      if (in_t[v]) solution.pair.t.push_back(v);
    }
    solution.density = PairDensity(g, solution.pair);
    solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
    // Replay determinism: the recomputed density must match the scan.
    CHECK_GE(solution.density + 1e-9, best->density);
  }
  solution.lower_bound = solution.density;
  solution.upper_bound = 2.0 * RatioMismatchPhi(1.0 + options.epsilon) *
                         solution.density;
  solution.stats.seconds = timer.Seconds();
  return solution;
}

template DdsSolution PeelApprox<Digraph>(const Digraph&,
                                         const PeelApproxOptions&);
template DdsSolution PeelApprox<WeightedDigraph>(const WeightedDigraph&,
                                                 const PeelApproxOptions&);

}  // namespace ddsgraph
