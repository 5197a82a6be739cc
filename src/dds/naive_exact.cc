#include "dds/naive_exact.h"

#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/timer.h"

namespace ddsgraph {

DdsSolution NaiveExact(const Digraph& g) {
  WallTimer timer;
  const uint32_t n = g.NumVertices();
  CHECK_LE(n, kNaiveExactMaxVertices)
      << "NaiveExact enumerates 4^n pairs; use FlowExact or CoreExact";
  DdsSolution solution;
  if (g.NumEdges() == 0) return solution;

  // Bitmask adjacency: out_mask[u] has bit v set iff (u,v) in E.
  std::vector<uint32_t> out_mask(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) out_mask[u] |= 1u << v;
  }

  // Precompute |S| and sqrt tables.
  std::vector<double> sqrt_table(n + 1);
  for (uint32_t i = 0; i <= n; ++i) {
    sqrt_table[i] = std::sqrt(static_cast<double>(i));
  }

  const uint32_t full = (n >= 32) ? ~0u : ((1u << n) - 1);
  double best = 0;
  uint32_t best_s = 0;
  uint32_t best_t = 0;
  int64_t best_edges = 0;
  for (uint32_t s_mask = 1; s_mask <= full; ++s_mask) {
    // Union of out-neighborhoods restricted later per t_mask; precompute
    // per-S edge budget by iterating members once per t_mask instead:
    // collect members of S.
    for (uint32_t t_mask = 1; t_mask <= full; ++t_mask) {
      int64_t edges = 0;
      uint32_t rest = s_mask;
      while (rest != 0) {
        const uint32_t u = static_cast<uint32_t>(std::countr_zero(rest));
        rest &= rest - 1;
        edges += std::popcount(out_mask[u] & t_mask);
      }
      if (edges == 0) continue;
      const double density =
          static_cast<double>(edges) /
          (sqrt_table[std::popcount(s_mask)] *
           sqrt_table[std::popcount(t_mask)]);
      if (density > best) {
        best = density;
        best_s = s_mask;
        best_t = t_mask;
        best_edges = edges;
      }
    }
  }

  for (uint32_t v = 0; v < n; ++v) {
    if (best_s & (1u << v)) solution.pair.s.push_back(v);
    if (best_t & (1u << v)) solution.pair.t.push_back(v);
  }
  solution.density = best;
  solution.pair_edges = best_edges;
  solution.lower_bound = best;
  solution.upper_bound = best;
  solution.stats.seconds = timer.Seconds();
  return solution;
}

DdsSolution NaiveExact(const WeightedDigraph& g) {
  WallTimer timer;
  const uint32_t n = g.NumVertices();
  CHECK_LE(n, kNaiveExactMaxVertices);
  DdsSolution solution;
  if (g.TotalWeight() == 0) return solution;

  std::vector<std::vector<int64_t>> weight(n, std::vector<int64_t>(n, 0));
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) weight[u][nbrs[i]] = weights[i];
  }
  const uint32_t full = (1u << n) - 1;
  double best = 0;
  uint32_t best_s = 0;
  uint32_t best_t = 0;
  int64_t best_weight = 0;
  for (uint32_t s_mask = 1; s_mask <= full; ++s_mask) {
    for (uint32_t t_mask = 1; t_mask <= full; ++t_mask) {
      int64_t w = 0;
      for (uint32_t rest = s_mask; rest != 0; rest &= rest - 1) {
        const uint32_t u = static_cast<uint32_t>(std::countr_zero(rest));
        for (uint32_t rest_t = t_mask; rest_t != 0; rest_t &= rest_t - 1) {
          const uint32_t v =
              static_cast<uint32_t>(std::countr_zero(rest_t));
          w += weight[u][v];
        }
      }
      if (w == 0) continue;
      const double density =
          static_cast<double>(w) /
          std::sqrt(static_cast<double>(std::popcount(s_mask)) *
                    static_cast<double>(std::popcount(t_mask)));
      if (density > best) {
        best = density;
        best_s = s_mask;
        best_t = t_mask;
        best_weight = w;
      }
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (best_s & (1u << v)) solution.pair.s.push_back(v);
    if (best_t & (1u << v)) solution.pair.t.push_back(v);
  }
  solution.density = best;
  solution.pair_edges = best_weight;
  solution.lower_bound = best;
  solution.upper_bound = best;
  solution.stats.seconds = timer.Seconds();
  return solution;
}

}  // namespace ddsgraph
