#include "dds/batch_peel_approx.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// One batch-peel pass. Returns the best intermediate pair density and,
// through the out-parameters, the best pair itself. `pool` runs the
// per-pass threshold scans chunk by chunk.
template <typename G>
double BatchPass(const G& g, double beta, ThreadPool* pool, int64_t* passes,
                 DdsPair* best_pair) {
  const uint32_t n = g.NumVertices();
  std::vector<bool> in_s(n, true);
  std::vector<bool> in_t(n, true);
  std::vector<int64_t> dout(n);
  std::vector<int64_t> din(n);
  for (VertexId v = 0; v < n; ++v) {
    dout[v] = g.WeightedOutDegree(v);
    din[v] = g.WeightedInDegree(v);
  }
  int64_t weight = g.TotalWeight();  // w(E(S,T)) of the surviving pair
  int64_t n_s = n;
  int64_t n_t = n;

  double best = 0;
  auto consider = [&] {
    if (n_s == 0 || n_t == 0 || weight == 0) return;
    const double density =
        static_cast<double>(weight) /
        std::sqrt(static_cast<double>(n_s) * static_cast<double>(n_t));
    if (density > best) {
      best = density;
      best_pair->s.clear();
      best_pair->t.clear();
      for (VertexId v = 0; v < n; ++v) {
        if (in_s[v]) best_pair->s.push_back(v);
        if (in_t[v]) best_pair->t.push_back(v);
      }
    }
  };

  // Chunk layout for the threshold scans. The chunk count is a function
  // of n alone (not of the worker count), and chunk results are
  // concatenated in chunk order, so the drop lists come out in vertex
  // order for every thread count.
  const uint32_t chunk_size = 1u << 14;
  const int64_t num_chunks = (n + chunk_size - 1) / chunk_size;
  std::vector<std::vector<VertexId>> chunk_drop_s(
      static_cast<size_t>(num_chunks));
  std::vector<std::vector<VertexId>> chunk_drop_t(
      static_cast<size_t>(num_chunks));

  consider();
  while (n_s > 0 && n_t > 0 && weight > 0) {
    ++*passes;
    // Thresholds: a vertex survives the pass iff it carries at least
    // 1/beta of its side's average edge-weight load.
    const double s_threshold =
        beta * static_cast<double>(weight) / static_cast<double>(n_s);
    const double t_threshold =
        beta * static_cast<double>(weight) / static_cast<double>(n_t);
    std::vector<VertexId> drop_s;
    std::vector<VertexId> drop_t;
    pool->ParallelFor(num_chunks, [&](int64_t c, int /*worker*/) {
      auto& local_s = chunk_drop_s[static_cast<size_t>(c)];
      auto& local_t = chunk_drop_t[static_cast<size_t>(c)];
      local_s.clear();
      local_t.clear();
      const VertexId begin = static_cast<VertexId>(c) * chunk_size;
      const VertexId end = std::min<VertexId>(n, begin + chunk_size);
      for (VertexId v = begin; v < end; ++v) {
        if (in_s[v] && static_cast<double>(dout[v]) <= s_threshold) {
          local_s.push_back(v);
        }
        if (in_t[v] && static_cast<double>(din[v]) <= t_threshold) {
          local_t.push_back(v);
        }
      }
    });
    for (int64_t c = 0; c < num_chunks; ++c) {
      drop_s.insert(drop_s.end(), chunk_drop_s[static_cast<size_t>(c)].begin(),
                    chunk_drop_s[static_cast<size_t>(c)].end());
      drop_t.insert(drop_t.end(), chunk_drop_t[static_cast<size_t>(c)].begin(),
                    chunk_drop_t[static_cast<size_t>(c)].end());
    }
    // Every vertex passing both thresholds would certify a dense pair; at
    // least one side always loses a constant fraction (averaging over
    // vertex counts, so weights don't change the pass bound), giving
    // O(log n / log beta) passes.
    if (drop_s.empty() && drop_t.empty()) {
      // Numerically possible when thresholds round badly; fall back to
      // dropping the global minimum to guarantee progress.
      VertexId victim = 0;
      int64_t victim_key = std::numeric_limits<int64_t>::max();
      int victim_side = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (in_s[v] && dout[v] < victim_key) {
          victim = v;
          victim_key = dout[v];
          victim_side = 0;
        }
        if (in_t[v] && din[v] < victim_key) {
          victim = v;
          victim_key = din[v];
          victim_side = 1;
        }
      }
      (victim_side == 0 ? drop_s : drop_t).push_back(victim);
    }
    for (VertexId u : drop_s) {
      in_s[u] = false;
      --n_s;
      const auto nbrs = g.OutNeighbors(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        if (in_t[v]) {
          const int64_t w = g.OutWeight(u, i);
          weight -= w;
          din[v] -= w;
        }
      }
    }
    for (VertexId v : drop_t) {
      if (in_t[v]) {
        in_t[v] = false;
        --n_t;
        const auto nbrs = g.InNeighbors(v);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const VertexId u = nbrs[i];
          if (in_s[u]) {
            const int64_t w = g.InWeight(v, i);
            weight -= w;
            dout[u] -= w;
          }
        }
      }
    }
    consider();
  }
  return best;
}

}  // namespace

template <typename G>
DdsSolution BatchPeelApprox(const G& g, const BatchPeelOptions& options) {
  CHECK_GT(options.ladder_epsilon, 0.0);
  CHECK_GT(options.batch_epsilon, 0.0);
  CHECK_GE(options.threads, 1);
  WallTimer timer;
  DdsSolution solution;
  if (g.NumEdges() == 0) return solution;
  const double beta = 1.0 + options.batch_epsilon;

  // The directed batch pass thresholds on per-side averages
  // (beta * w(E) / n_side), not on a ratio-linearized objective, so one
  // pass covers every ratio at once — a geometric ratio ladder would
  // repeat the identical computation at every rung.
  ThreadPool pool(options.threads);
  int64_t passes = 0;
  DdsPair pair;
  (void)BatchPass(g, beta, &pool, &passes, &pair);
  solution.pair = std::move(pair);
  solution.stats.ratios_probed = 1;
  solution.stats.binary_search_iters = passes;
  solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
  // Recompute exactly (the scan used incremental counters).
  solution.density = PairDensity(g, solution.pair);
  solution.lower_bound = solution.density;
  solution.upper_bound = 2.0 * beta * beta *
                         RatioMismatchPhi(1.0 + options.ladder_epsilon) *
                         solution.density;
  solution.stats.seconds = timer.Seconds();
  return solution;
}

template DdsSolution BatchPeelApprox<Digraph>(const Digraph&,
                                              const BatchPeelOptions&);
template DdsSolution BatchPeelApprox<WeightedDigraph>(
    const WeightedDigraph&, const BatchPeelOptions&);

}  // namespace ddsgraph
