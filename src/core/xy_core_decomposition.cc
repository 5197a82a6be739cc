#include "core/xy_core_decomposition.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/peel_queue.h"
#include "util/thread_pool.h"

namespace ddsgraph {

// The policy split of DESIGN.md §10: unit-weight peels keep the bucket
// array; weighted peels get the runtime hybrid that picks the bucket
// array when the weighted-degree range is dense enough and the
// range-independent heap otherwise.
static_assert(std::is_same_v<PeelQueue<Digraph>, BucketQueue>);
static_assert(std::is_same_v<PeelQueue<WeightedDigraph>, HybridPeelQueue>);

template <typename G>
int64_t MaxYForX(const G& g, int64_t x) {
  CHECK_GE(x, 1);
  const uint32_t n = g.NumVertices();
  if (n == 0 || g.TotalWeight() == 0) return 0;

  std::vector<bool> in_s(n, true);
  std::vector<bool> in_t(n, true);
  std::vector<int64_t> dout(n);  // w(out(u) ∩ T)
  std::vector<int64_t> din(n);   // w(in(v) ∩ S)
  for (VertexId v = 0; v < n; ++v) {
    dout[v] = g.WeightedOutDegree(v);
    din[v] = g.WeightedInDegree(v);
  }

  // S-side violations cascade through this stack; T-side removals are
  // driven by the bucket queue below as y rises.
  std::vector<VertexId> s_stack;
  uint32_t t_remaining = n;

  // Policy-selected: a bucket array over plain in-degrees for Digraph, a
  // lazy heap for WeightedDigraph (a bucket array of MaxWeightedInDegree
  // slots would be an O(W) allocation per call).
  PeelQueue<G> t_queue(n, g.MaxWeightedInDegree());

  auto remove_from_s = [&](VertexId u) {
    // pre: in_s[u], dout[u] < x
    in_s[u] = false;
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (in_t[v]) {
        din[v] -= g.OutWeight(u, i);
        if (t_queue.Contains(v)) t_queue.DecreaseKey(v, din[v]);
      }
    }
  };
  auto remove_from_t = [&](VertexId v) {
    // pre: in_t[v] (queue entry already popped/stale-proofed by caller)
    in_t[v] = false;
    --t_remaining;
    const auto nbrs = g.InNeighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (in_s[u]) {
        dout[u] -= g.InWeight(v, i);
        if (dout[u] < x) s_stack.push_back(u);
      }
    }
  };

  // Phase 1: enforce the x-constraint at y = 0 (T = V fixed).
  for (VertexId u = 0; u < n; ++u) {
    if (dout[u] < x) s_stack.push_back(u);
  }
  // din updates during phase 1 have no T-side consequences yet, so the
  // queue is filled afterwards with the settled values.
  while (!s_stack.empty()) {
    const VertexId u = s_stack.back();
    s_stack.pop_back();
    if (!in_s[u]) continue;
    in_s[u] = false;
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (in_t[nbrs[i]]) din[nbrs[i]] -= g.OutWeight(u, i);
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    t_queue.Insert(v, std::max<int64_t>(din[v], 0));
  }

  // Phase 2: raise y; pop T vertices below it and cascade through S.
  int64_t best_y = 0;
  int64_t y = 1;
  while (true) {
    while (true) {
      const auto min_key = t_queue.PeekMinKey();
      if (!min_key.has_value() || *min_key >= y) break;
      const auto popped = t_queue.PopMin();
      const VertexId v = popped->first;
      if (!in_t[v]) continue;
      remove_from_t(v);
      while (!s_stack.empty()) {
        const VertexId u = s_stack.back();
        s_stack.pop_back();
        if (!in_s[u] || dout[u] >= x) continue;
        remove_from_s(u);
      }
    }
    if (t_remaining == 0 || t_queue.Empty()) break;
    // The surviving set has all (weighted) in-degrees >= the current min
    // key K >= y, so it *is* the non-empty [x, y']-core for every y' <= K:
    // record K and jump straight past it. Weighted degrees are large and
    // sparse — stepping by one would be O(W) rounds.
    const auto min_key = t_queue.PeekMinKey();
    if (!min_key.has_value()) break;
    best_y = *min_key;
    y = *min_key + 1;
  }
  return best_y;
}

template int64_t MaxYForX<Digraph>(const Digraph&, int64_t);
template int64_t MaxYForX<WeightedDigraph>(const WeightedDigraph&, int64_t);

FixedXCoreNumbers ComputeFixedXCoreNumbers(const Digraph& g, int64_t x) {
  CHECK_GE(x, 1);
  const uint32_t n = g.NumVertices();
  FixedXCoreNumbers result;
  result.s_number.assign(n, -1);
  result.t_number.assign(n, 0);
  if (n == 0 || g.NumEdges() == 0) return result;

  std::vector<bool> in_s(n, true);
  std::vector<bool> in_t(n, true);
  std::vector<int64_t> dout(n);
  std::vector<int64_t> din(n);
  for (VertexId v = 0; v < n; ++v) {
    dout[v] = g.OutDegree(v);
    din[v] = g.InDegree(v);
  }
  std::vector<VertexId> s_stack;
  uint32_t t_remaining = n;
  PeelQueue<Digraph> t_queue(n, g.MaxInDegree());

  // Phase 1: enforce the x-constraint at y = 0. Vertices surviving it are
  // in the [x,0]-core's S side (number >= 0).
  for (VertexId u = 0; u < n; ++u) {
    if (dout[u] < x) s_stack.push_back(u);
  }
  while (!s_stack.empty()) {
    const VertexId u = s_stack.back();
    s_stack.pop_back();
    if (!in_s[u]) continue;
    in_s[u] = false;
    for (VertexId v : g.OutNeighbors(u)) {
      if (in_t[v]) --din[v];
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    if (in_s[u]) result.s_number[u] = 0;
  }
  for (VertexId v = 0; v < n; ++v) t_queue.Insert(v, din[v]);

  // Phase 2: raise y; a vertex removed while peeling towards level y was
  // last present in the [x, y-1]-core.
  for (int64_t y = 1;; ++y) {
    while (true) {
      const auto min_key = t_queue.PeekMinKey();
      if (!min_key.has_value() || *min_key >= y) break;
      const auto popped = t_queue.PopMin();
      const VertexId v = popped->first;
      if (!in_t[v]) continue;
      in_t[v] = false;
      result.t_number[v] = y - 1;
      --t_remaining;
      for (VertexId u : g.InNeighbors(v)) {
        if (in_s[u] && --dout[u] < x) s_stack.push_back(u);
      }
      while (!s_stack.empty()) {
        const VertexId u = s_stack.back();
        s_stack.pop_back();
        if (!in_s[u] || dout[u] >= x) continue;
        in_s[u] = false;
        result.s_number[u] = y - 1;
        for (VertexId w : g.OutNeighbors(u)) {
          if (in_t[w]) {
            --din[w];
            if (t_queue.Contains(w)) t_queue.DecreaseKey(w, din[w]);
          }
        }
      }
    }
    if (t_remaining == 0 || t_queue.Empty()) break;
    result.y_max = y;
  }
  // Survivors sit in every level up to y_max.
  for (VertexId v = 0; v < n; ++v) {
    if (in_s[v]) result.s_number[v] = result.y_max;
    if (in_t[v]) result.t_number[v] = result.y_max;
  }
  return result;
}

template <typename G>
std::vector<SkylinePoint> CoreSkyline(const G& g, int64_t x_limit,
                                      ThreadPool* pool, int64_t* peels) {
  std::vector<SkylinePoint> skyline;
  int64_t peel_count = 0;
  const int64_t bound =
      x_limit >= 1 ? x_limit : std::numeric_limits<int64_t>::max();
  if (g.NumVertices() == 0 || g.TotalWeight() == 0) {
    if (peels != nullptr) *peels = 0;
    return skyline;
  }

  // Batched corner walk (DESIGN.md §11): peel a batch of consecutive x
  // values, one per worker. y_max is non-increasing, so every strict drop
  // inside the batch pins a level's right end exactly — those corners
  // need no transpose peel at all — and only the level still open at the
  // batch's end pays one fixed-y sweep on the transpose, which jumps to
  // the level's right end x_max(y). Each distinct y-level thus costs at
  // most two peels no matter how wide it is in x — the property that
  // makes the decomposition weight-generic, since weighted levels span
  // Theta(W) consecutive x values. At one worker each batch is a single
  // x: one MaxYForX and one transpose jump per level. The staircase is a
  // pure function of the graph, so the points do not depend on how the
  // batches land.
  ThreadPool inline_pool(1);
  if (pool == nullptr) pool = &inline_pool;
  const G reversed = g.Reversed();
  const int64_t batch_cap = std::min<int64_t>(pool->num_workers(), 16);
  std::vector<int64_t> ys(static_cast<size_t>(batch_cap));
  int64_t x = 1;
  while (x <= bound) {
    const int64_t batch = std::min(batch_cap, bound - x + 1);
    pool->ParallelFor(batch, [&](int64_t j, int /*worker*/) {
      ys[static_cast<size_t>(j)] = MaxYForX(g, x + j);
    });
    peel_count += batch;
    if (ys[0] == 0) break;
    bool done = false;
    int64_t j = 0;
    while (j < batch) {
      const int64_t y = ys[static_cast<size_t>(j)];
      int64_t k = j;
      while (k + 1 < batch && ys[static_cast<size_t>(k + 1)] == y) ++k;
      if (k + 1 < batch) {
        // The level's right end is inside the batch: y_max(x + k + 1)
        // drops below y, so x_max(y) = x + k exactly.
        skyline.push_back(SkylinePoint{x + k, y});
        if (ys[static_cast<size_t>(k + 1)] == 0) {
          done = true;  // the staircase ends inside the batch
          break;
        }
        j = k + 1;
      } else {
        // The level may extend past the batch: one transpose jump finds
        // (and skips) its true right end. A level reaching past the cap is
        // reported truncated at the cap (still realized and y-maximal
        // there, just not x-maximal).
        ++peel_count;
        int64_t x_right = MaxYForX(reversed, y);
        CHECK_GE(x_right, x + k);
        x_right = std::min(x_right, bound);
        skyline.push_back(SkylinePoint{x_right, y});
        x = x_right + 1;
        break;
      }
    }
    if (done) break;
  }
  if (peels != nullptr) *peels = peel_count;
  return skyline;
}

template std::vector<SkylinePoint> CoreSkyline<Digraph>(const Digraph&,
                                                        int64_t, ThreadPool*,
                                                        int64_t*);
template std::vector<SkylinePoint> CoreSkyline<WeightedDigraph>(
    const WeightedDigraph&, int64_t, ThreadPool*, int64_t*);

}  // namespace ddsgraph
