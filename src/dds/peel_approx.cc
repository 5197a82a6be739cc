#include "dds/peel_approx.h"

#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/peel_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// Everything one greedy walk carries. A vertex is in S while `s_queue`
// holds it, keyed by its weighted out-degree into T, and in T while
// `t_queue` holds it, keyed by its weighted in-degree from S; `weight` is
// w(E(S,T)) of the surviving pair. Copying a state forks the walk.
template <typename G>
struct WalkState {
  explicit WalkState(const G& g)
      : s_queue(g.NumVertices(), g.MaxWeightedOutDegree()),
        t_queue(g.NumVertices(), g.MaxWeightedInDegree()),
        weight(g.TotalWeight()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      s_queue.Insert(v, g.WeightedOutDegree(v));
      t_queue.Insert(v, g.WeightedInDegree(v));
    }
    Consider();
  }

  // Records the surviving pair if it is strictly denser than the best so
  // far, so the best step is the first one reaching the best density.
  void Consider() {
    const uint32_t n_s = s_queue.Size();
    const uint32_t n_t = t_queue.Size();
    if (n_s == 0 || n_t == 0 || weight == 0) return;
    const double density =
        static_cast<double>(weight) /
        std::sqrt(static_cast<double>(n_s) * static_cast<double>(n_t));
    if (density > best_density) {
      best_density = density;
      best_step = step;
    }
  }

  PeelQueue<G> s_queue;
  PeelQueue<G> t_queue;
  int64_t weight = 0;
  int64_t step = 0;  ///< removals so far
  double best_density = 0;
  int64_t best_step = -1;  ///< removals before the best pair
};

// Walks the ladder rungs [*lo, *hi] on one shared state until S or T is
// empty, or until `stop_step` removals. A rung's ratio a enters the walk
// only through the test s·√a <= t/√a on the minimum keys (true: remove
// the S vertex), which is monotone in a, so the rungs taking S at a step
// are a prefix of the range. While the end rungs agree the whole range
// makes the same removal. Where they disagree, the range splits at the
// first rung taking T: the walk keeps the smaller part and hands the
// other to `fork(lo, hi)` before the removal, for a copy of the state to
// walk on its own.
template <typename G, typename Fork>
void Walk(const G& g, const std::vector<double>& sqrt_a, int64_t stop_step,
          WalkState<G>* state, int64_t* lo, int64_t* hi, const Fork& fork) {
  auto& s_queue = state->s_queue;
  auto& t_queue = state->t_queue;
  while (s_queue.Size() > 0 && t_queue.Size() > 0 &&
         state->step != stop_step) {
    const double s = static_cast<double>(*s_queue.PeekMinKey());
    const double t = static_cast<double>(*t_queue.PeekMinKey());
    auto takes_s = [&](int64_t rung) {
      const double r = sqrt_a[static_cast<size_t>(rung)];
      return s * r <= t / r;
    };
    bool take_s = takes_s(*lo);
    if (take_s != takes_s(*hi)) {
      int64_t first_t = *hi;  // takes T; *lo takes S
      for (int64_t left = *lo; first_t - left > 1;) {
        const int64_t mid = left + (first_t - left) / 2;
        (takes_s(mid) ? left : first_t) = mid;
      }
      if (first_t - *lo <= *hi - first_t + 1) {
        fork(first_t, *hi);
        *hi = first_t - 1;
      } else {
        fork(*lo, first_t - 1);
        *lo = first_t;
        take_s = false;
      }
    }
    if (take_s) {
      const VertexId u = s_queue.PopMin()->first;
      const auto nbrs = g.OutNeighbors(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        if (t_queue.Contains(v)) {
          const int64_t w = g.OutWeight(u, i);
          state->weight -= w;
          t_queue.DecreaseKey(v, t_queue.KeyOf(v) - w);
        }
      }
    } else {
      const VertexId v = t_queue.PopMin()->first;
      const auto nbrs = g.InNeighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (s_queue.Contains(u)) {
          const int64_t w = g.InWeight(v, i);
          state->weight -= w;
          s_queue.DecreaseKey(u, s_queue.KeyOf(u) - w);
        }
      }
    }
    ++state->step;
    state->Consider();
  }
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
  const int64_t num_rungs = static_cast<int64_t>(ladder.size());
  solution.stats.ratios_probed = num_rungs;
  std::vector<double> sqrt_a(ladder.size());
  for (size_t i = 0; i < ladder.size(); ++i) sqrt_a[i] = std::sqrt(ladder[i]);

  // One walk from the full graph carries the whole ladder and forks where
  // its end rungs disagree (DESIGN.md §4). Forked ranges go on a stack the
  // pool's workers share; each rung's (best density, best step) depends
  // only on the rung, so the schedule decides when a range is walked,
  // never what a rung gets. Finished states are recycled as fork buffers.
  struct Pending {
    std::unique_ptr<WalkState<G>> state;
    int64_t lo;
    int64_t hi;
  };
  struct RungResult {
    double density = 0;
    int64_t step = -1;
  };
  std::vector<RungResult> results(ladder.size());  // disjoint ranges
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending> stack;                         // guarded by mu
  std::vector<std::unique_ptr<WalkState<G>>> spare;  // guarded by mu
  int active = 0;                                     // guarded by mu
  stack.push_back({std::make_unique<WalkState<G>>(g), 0, num_rungs - 1});

  ThreadPool pool(options.threads);
  pool.RunOnAllWorkers([&](int /*worker*/) {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return !stack.empty() || active == 0; });
      if (stack.empty()) return;
      Pending item = std::move(stack.back());
      stack.pop_back();
      ++active;
      lock.unlock();
      auto fork = [&](int64_t fork_lo, int64_t fork_hi) {
        std::unique_ptr<WalkState<G>> copy;
        {
          std::lock_guard<std::mutex> guard(mu);
          if (!spare.empty()) {
            copy = std::move(spare.back());
            spare.pop_back();
          }
        }
        if (copy != nullptr) {
          *copy = *item.state;
        } else {
          copy = std::make_unique<WalkState<G>>(*item.state);
        }
        {
          std::lock_guard<std::mutex> guard(mu);
          stack.push_back({std::move(copy), fork_lo, fork_hi});
        }
        cv.notify_one();
      };
      Walk(g, sqrt_a, /*stop_step=*/-1, item.state.get(), &item.lo,
           &item.hi, fork);
      for (int64_t r = item.lo; r <= item.hi; ++r) {
        results[static_cast<size_t>(r)] = {item.state->best_density,
                                           item.state->best_step};
      }
      lock.lock();
      spare.push_back(std::move(item.state));
      if (--active == 0 && stack.empty()) cv.notify_all();
    }
  });

  // The sequential first-strictly-better scan: density desc, rung asc.
  int64_t best_rung = -1;
  double best_density = 0;
  for (int64_t r = 0; r < num_rungs; ++r) {
    if (results[static_cast<size_t>(r)].density > best_density) {
      best_density = results[static_cast<size_t>(r)].density;
      best_rung = r;
    }
  }

  if (best_rung >= 0) {
    // Materialize the winner: walk its rung alone up to its best step.
    const int64_t best_step = results[static_cast<size_t>(best_rung)].step;
    CHECK_GE(best_step, 0);
    WalkState<G> state(g);
    int64_t rung_lo = best_rung;
    int64_t rung_hi = best_rung;
    Walk(g, sqrt_a, best_step, &state, &rung_lo, &rung_hi,
         [](int64_t, int64_t) { LOG(FATAL) << "a single rung cannot fork"; });
    CHECK_EQ(state.step, best_step);
    for (VertexId v = 0; v < n; ++v) {
      if (state.s_queue.Contains(v)) solution.pair.s.push_back(v);
      if (state.t_queue.Contains(v)) solution.pair.t.push_back(v);
    }
    solution.density = PairDensity(g, solution.pair);
    solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
    // Replay determinism: the recomputed density must match the scan.
    CHECK_GE(solution.density + 1e-9, best_density);
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
