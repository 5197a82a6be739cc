#ifndef DDSGRAPH_DDS_BATCH_PEEL_APPROX_H_
#define DDSGRAPH_DDS_BATCH_PEEL_APPROX_H_

#include "dds/result.h"
#include "graph/digraph.h"

/// \file
/// BatchPeelApprox — the streaming-style batch-peeling baseline
/// (Bahmani–Kumar–Vassilvitskii, adapted to the directed objective).
///
/// Where PeelApprox removes one vertex at a time, the batch variant
/// removes, in each pass, *every* S-vertex whose restricted weighted
/// out-degree is below beta * (average out-contribution w(E)/|S|) and
/// every T-vertex below the analogous in-threshold (beta = 1 + eps). The
/// thresholds are per-side averages rather than a ratio-linearized
/// objective, so a single peel covers all ratios at once. Each pass
/// shrinks the candidate pair geometrically, so the whole run costs
/// O(log(n) / eps) passes of O(n + m) — the MapReduce/streaming
/// trade-off: more total work than queue peeling on one machine, but only
/// O(log n) sequential rounds. The pass-count bound is an averaging
/// argument over vertex counts, so it is untouched by edge weights.
/// Certificate: upper_bound = 2 (1+eps)^2 phi(1+ladder_eps) * density,
/// carried over verbatim with w(E) in place of |E| — a template over
/// `DigraphT<WeightPolicy>` like the rest of the approximation pipeline.
///
/// Included as the second approximation baseline of the evaluation (the
/// paper's comparison set includes a streaming/batch peeler); also a
/// useful contrast in E3: batch peeling is pass-efficient, CoreApprox is
/// simply faster on one machine.

namespace ddsgraph {

struct BatchPeelOptions {
  /// Ratio-coverage slack of the certificate (the phi factor above).
  double ladder_epsilon = 0.1;
  /// Batch threshold slack beta = 1 + batch_epsilon.
  double batch_epsilon = 0.25;
  /// Worker count (util/thread_pool.h) for the per-pass threshold scans —
  /// the O(n) read-only half of every pass. The vertex range is scanned in
  /// ceil(n / 2^14) chunks at every thread count, concurrently across the
  /// workers, and the chunks' drop lists are concatenated in chunk order,
  /// so the drop sets, their application order and hence the whole run
  /// are bit-identical for every thread count.
  int threads = 1;
};

/// Runs the batch-peeling baseline. stats.ratios_probed is 1 (the single
/// ratio-free peel); stats.binary_search_iters counts passes (the
/// quantity a streaming system would pay).
template <typename G>
DdsSolution BatchPeelApprox(
    const G& g, const BatchPeelOptions& options = BatchPeelOptions());

extern template DdsSolution BatchPeelApprox<Digraph>(const Digraph&,
                                                     const BatchPeelOptions&);
extern template DdsSolution BatchPeelApprox<WeightedDigraph>(
    const WeightedDigraph&, const BatchPeelOptions&);

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_BATCH_PEEL_APPROX_H_
