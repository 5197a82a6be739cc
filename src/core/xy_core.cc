#include "core/xy_core.h"

#include <numeric>

#include "util/logging.h"

namespace ddsgraph {

template <typename G>
XyCore ComputeXyCoreWithin(const G& g, int64_t x, int64_t y,
                           const std::vector<VertexId>& s_init,
                           const std::vector<VertexId>& t_init,
                           XyCoreScratch* scratch) {
  CHECK_GE(x, 0);
  CHECK_GE(y, 0);
  CHECK(scratch != nullptr);
  const uint32_t n = g.NumVertices();
  // Membership marks are epoch-cleared in O(1); the degree accumulators
  // are only (re)written at the candidates, so nothing here scans 0..n.
  scratch->in_s.Clear(n);
  scratch->in_t.Clear(n);
  if (scratch->dout.size() < n) scratch->dout.resize(n, 0);
  if (scratch->din.size() < n) scratch->din.resize(n, 0);
  // Candidate lists must be duplicate-free: a repeated vertex would have
  // its degree accumulated once per occurrence below.
  for (VertexId u : s_init) {
    CHECK_LT(u, n);
    DCHECK(!scratch->in_s.Contains(u)) << "duplicate s candidate " << u;
    scratch->in_s.Insert(u);
    scratch->dout[u] = 0;
  }
  for (VertexId v : t_init) {
    CHECK_LT(v, n);
    DCHECK(!scratch->in_t.Contains(v)) << "duplicate t candidate " << v;
    scratch->in_t.Insert(v);
    scratch->din[v] = 0;
  }
  for (VertexId u : s_init) {
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (scratch->in_t.Contains(nbrs[i])) {
        const int64_t w = g.OutWeight(u, i);
        scratch->dout[u] += w;
        scratch->din[nbrs[i]] += w;
      }
    }
  }

  // Violation work-stack peel to the fixpoint; the fixpoint is unique, so
  // the stack discipline cannot change the result.
  auto& stack = scratch->stack;
  stack.clear();
  for (VertexId u : s_init) {
    if (x > 0 && scratch->dout[u] < x) stack.emplace_back(u, 0);
  }
  for (VertexId v : t_init) {
    if (y > 0 && scratch->din[v] < y) stack.emplace_back(v, 1);
  }
  while (!stack.empty()) {
    const auto [v, side] = stack.back();
    stack.pop_back();
    if (side == 0) {
      if (!scratch->in_s.Contains(v)) continue;
      scratch->in_s.Remove(v);
      const auto nbrs = g.OutNeighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (scratch->in_t.Contains(w)) {
          scratch->din[w] -= g.OutWeight(v, i);
          if (y > 0 && scratch->din[w] < y) stack.emplace_back(w, 1);
        }
      }
    } else {
      if (!scratch->in_t.Contains(v)) continue;
      scratch->in_t.Remove(v);
      const auto nbrs = g.InNeighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (scratch->in_s.Contains(w)) {
          scratch->dout[w] -= g.InWeight(v, i);
          if (x > 0 && scratch->dout[w] < x) stack.emplace_back(w, 0);
        }
      }
    }
  }

  // Collect in input order, so sorted candidates yield sorted sides.
  XyCore core;
  for (VertexId u : s_init) {
    if (scratch->in_s.Contains(u)) core.s.push_back(u);
  }
  for (VertexId v : t_init) {
    if (scratch->in_t.Contains(v)) core.t.push_back(v);
  }
  return core;
}

template <typename G>
XyCore ComputeXyCore(const G& g, int64_t x, int64_t y) {
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  XyCoreScratch scratch;
  return ComputeXyCoreWithin(g, x, y, all, all, &scratch);
}

template <typename G>
bool IsValidXyCore(const G& g, const XyCore& core, int64_t x, int64_t y) {
  std::vector<bool> in_s(g.NumVertices(), false);
  std::vector<bool> in_t(g.NumVertices(), false);
  for (VertexId u : core.s) in_s[u] = true;
  for (VertexId v : core.t) in_t[v] = true;
  for (VertexId u : core.s) {
    int64_t deg = 0;
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (in_t[nbrs[i]]) deg += g.OutWeight(u, i);
    }
    if (deg < x) return false;
  }
  for (VertexId v : core.t) {
    int64_t deg = 0;
    const auto nbrs = g.InNeighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (in_s[nbrs[i]]) deg += g.InWeight(v, i);
    }
    if (deg < y) return false;
  }
  return true;
}

template XyCore ComputeXyCore<Digraph>(const Digraph&, int64_t, int64_t);
template XyCore ComputeXyCore<WeightedDigraph>(const WeightedDigraph&,
                                               int64_t, int64_t);
template XyCore ComputeXyCoreWithin<Digraph>(
    const Digraph&, int64_t, int64_t, const std::vector<VertexId>&,
    const std::vector<VertexId>&, XyCoreScratch*);
template XyCore ComputeXyCoreWithin<WeightedDigraph>(
    const WeightedDigraph&, int64_t, int64_t, const std::vector<VertexId>&,
    const std::vector<VertexId>&, XyCoreScratch*);
template bool IsValidXyCore<Digraph>(const Digraph&, const XyCore&, int64_t,
                                     int64_t);
template bool IsValidXyCore<WeightedDigraph>(const WeightedDigraph&,
                                             const XyCore&, int64_t,
                                             int64_t);

}  // namespace ddsgraph
