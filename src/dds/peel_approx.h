#ifndef DDSGRAPH_DDS_PEEL_APPROX_H_
#define DDSGRAPH_DDS_PEEL_APPROX_H_

#include "dds/result.h"
#include "graph/digraph.h"

/// \file
/// PeelApprox — the greedy peeling approximation baseline
/// (Charikar-style greedy per ratio, over a geometric ladder of ratio
/// guesses, as in the streaming/peeling baselines the paper compares with).
///
/// For a fixed ratio a, the S-side weight is 1/sqrt(a) and the T-side
/// weight sqrt(a); the greedy repeatedly removes the vertex with minimum
/// weighted-degree-to-weight ratio and remembers the densest intermediate
/// pair. That achieves half the maximum linearized density at ratio a;
/// running it for ratios a_k = (1/n) * (1+eps)^k covering [1/n, n] loses a
/// further phi(1+eps) ratio-mismatch factor, giving a 2*phi(1+eps)
/// approximation overall: rho_opt <= 2 * phi(1+eps) * density(returned).
///
/// The whole pipeline is a template over `DigraphT<WeightPolicy>`: the
/// weighted instantiation peels by weighted degrees and maximizes
/// w(E(S,T)) / sqrt(|S||T|), and both the per-ratio charging argument and
/// the ladder (the |S|/|T| ratio space is weight-independent) carry the
/// 2*phi(1+eps) certificate over verbatim with w(E) in place of |E|.
///
/// The rungs are not peeled one by one. A rung's ratio enters its pass
/// only through a test that is monotone along the ladder, so rungs that
/// agree make the same removals: one walk carries a whole range of rungs
/// and forks where the range's end rungs disagree (DESIGN.md §4). Each
/// rung still gets exactly the result of its own pass.
///
/// Complexity: O((n + m) * log(n) / eps) at unit weights using monotone
/// bucket queues (at most one walk per rung; shared prefixes are walked
/// once), plus O(n + D) per fork to copy the walk's state; the weighted
/// instantiation swaps in a lazy-deletion heap (util/peel_queue.h) when
/// the weighted degrees are too wide for a bucket array, for an extra
/// log n on the queue operations — never O(W) anywhere.

namespace ddsgraph {

struct PeelApproxOptions {
  /// Geometric ladder step; smaller = tighter guarantee, more passes.
  double epsilon = 0.1;
  /// Worker count for the rung tree (util/thread_pool.h): the ranges
  /// split off by forks are independent walks over the read-only `g`, so
  /// `threads` workers take them from a shared stack, and the rungs are
  /// merged afterwards with the sequential tie-break (equal density ->
  /// lowest rung index). Results are bit-identical for every thread
  /// count; 1 (the default) walks the whole tree inline on the caller.
  int threads = 1;
};

/// Runs the peeling baseline. stats.ratios_probed reports the number of
/// ladder points; upper_bound carries the certified 2*phi(1+eps) bound.
/// The winning rung's pair is materialized by walking that rung alone up
/// to its best step.
template <typename G>
DdsSolution PeelApprox(const G& g,
                       const PeelApproxOptions& options = PeelApproxOptions());

extern template DdsSolution PeelApprox<Digraph>(const Digraph&,
                                                const PeelApproxOptions&);
extern template DdsSolution PeelApprox<WeightedDigraph>(
    const WeightedDigraph&, const PeelApproxOptions&);

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_PEEL_APPROX_H_
