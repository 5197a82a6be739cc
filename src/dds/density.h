#ifndef DDSGRAPH_DDS_DENSITY_H_
#define DDSGRAPH_DDS_DENSITY_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"

/// \file
/// Directed density evaluation, weight-generic.
///
/// The quantity being maximized throughout the library is the Kannan-Vinay
/// directed density rho(S,T) = w(E(S,T)) / sqrt(|S| |T|), where
/// E(S,T) = {(u,v) in E : u in S, v in T}, w sums edge weights (the edge
/// count on the unweighted instantiation) and S, T may overlap. The
/// templates below serve both weight policies.

namespace ddsgraph {

/// A candidate solution pair. Vectors hold distinct vertex ids.
struct DdsPair {
  std::vector<VertexId> s;
  std::vector<VertexId> t;

  bool Empty() const { return s.empty() || t.empty(); }
};

/// w(E(S,T)): total weight of edges leaving `s` and landing in `t` — the
/// plain edge count for the unweighted instantiation. O(sum of s-side
/// out-degrees).
template <typename G>
int64_t PairWeight(const G& g, const std::vector<VertexId>& s,
                   const std::vector<VertexId>& t);

/// rho(S,T) = w(E(S,T)) / sqrt(|S||T|); 0 if either side is empty.
template <typename G>
double PairDensity(const G& g, const std::vector<VertexId>& s,
                   const std::vector<VertexId>& t);

/// Convenience overload.
template <typename G>
double PairDensity(const G& g, const DdsPair& pair) {
  return PairDensity(g, pair.s, pair.t);
}

/// Linearized density at ratio a: 2 w(E(S,T)) / (|S|/sqrt(a) + sqrt(a)|T|).
/// By AM-GM this is <= rho(S,T), with equality iff |S|/|T| = a.
template <typename G>
double PairLinearizedDensity(const G& g, const DdsPair& pair,
                             double sqrt_ratio);

extern template int64_t PairWeight<Digraph>(const Digraph&,
                                            const std::vector<VertexId>&,
                                            const std::vector<VertexId>&);
extern template int64_t PairWeight<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&);
extern template double PairDensity<Digraph>(const Digraph&,
                                            const std::vector<VertexId>&,
                                            const std::vector<VertexId>&);
extern template double PairDensity<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&);
extern template double PairLinearizedDensity<Digraph>(const Digraph&,
                                                      const DdsPair&,
                                                      double);
extern template double PairLinearizedDensity<WeightedDigraph>(
    const WeightedDigraph&, const DdsPair&, double);

/// The AM/GM mismatch factor phi(r) = (sqrt(r) + 1/sqrt(r)) / 2 >= 1 used by
/// the ratio-interval pruning bound: rho(S,T) <= h(c) * phi(a/c) whenever
/// |S|/|T| = a and h(c) is the max linearized density at probe ratio c.
/// Weight-generic like everything in this header: the inequality divides
/// the shared numerator w(E(S,T)) out, so approximation certificates built
/// from it (the 2*phi(1+eps) peel ladder bound) hold for both objectives.
double RatioMismatchPhi(double r);

/// Removes duplicate ids and sorts both sides in place; returns false if
/// any id is out of range.
bool NormalizePair(const Digraph& g, DdsPair* pair);

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_DENSITY_H_
