#ifndef DDSGRAPH_DDS_CORE_EXACT_H_
#define DDSGRAPH_DDS_CORE_EXACT_H_

#include <cstdint>
#include <vector>

#include "core/xy_core.h"
#include "dds/control.h"
#include "dds/result.h"
#include "flow/dds_network.h"
#include "flow/flow_engine.h"
#include "graph/digraph.h"
#include "util/stern_brocot.h"

/// \file
/// The exact DDS solver engine, weight-generic.
///
/// Every entry point is a template over `DigraphT<WeightPolicy>`
/// (graph/digraph.h), explicitly instantiated for the unweighted and the
/// weighted graph: the paper's CoreExact development carries over to
/// weighted graphs verbatim with |E| -> w(E) (DESIGN.md §9), so one
/// divide-and-conquer loop, one probe and one anytime-bookkeeping path
/// serve both problems, and every `ExactOptions` flag below applies to
/// weighted solves too: `SolveExactDds(g, ExactOptions{})` on a
/// `WeightedDigraph` is the weighted CoreExact.
///
/// One engine implements three published algorithms via feature flags
/// (DESIGN.md §3), which is also how the ablation experiment E7 is run:
///
///   * FlowExact  (baseline "BS-Exact"): probe every realizable ratio
///     p/q (p, q <= n) with a binary search of min-cut feasibility tests on
///     the whole graph — the Khuller-Saha-style state of the art the paper
///     compares against.
///   * DcExact: explore the ratio space by divide and conquer, pruning
///     intervals with the phi bound once the incumbent is high enough.
///   * CoreExact (the paper's algorithm): DcExact plus (i) warm-starting
///     the incumbent with CoreApprox, (ii) locating candidates inside the
///     [x,y]-core implied by the incumbent and the ratio interval, and
///     (iii) re-peeling the core as the binary search's lower bound rises,
///     so flow networks shrink across iterations.
///
/// Correctness invariants maintained throughout (see core_exact.cc):
///   * the incumbent is always a real pair with exactly evaluated density;
///   * every interval is discarded only under a certified upper bound;
///   * feasibility of a guess is decided by exhibiting a witness pair from
///     the min cut and evaluating it exactly, so the lower bound of the
///     binary search never rests on floating-point flow values.

namespace ddsgraph {

/// Feature flags of the exact engine. Defaults = CoreExact.
struct ExactOptions {
  /// Divide and conquer over ratio intervals instead of enumerating all
  /// O(n^2) realizable ratios.
  bool divide_and_conquer = true;
  /// Restrict each probe to the [x,y]-core implied by the incumbent
  /// density and the ratio interval (Pruning 1/2 of the paper).
  bool core_pruning = true;
  /// Within a probe, re-peel the candidate core each time the binary
  /// search raises its lower bound, shrinking the flow networks
  /// (Pruning 3 / "networks gradually become smaller").
  bool refine_cores_in_probe = true;
  /// Seed the incumbent (and the global upper bound) with CoreApprox.
  bool approx_warm_start = true;
  /// Run each ratio probe on the parametric engine: build the flow network
  /// once per candidate set, Reparameterize between binary-search guesses,
  /// and warm-start the max flow from the previous residual state
  /// (DESIGN.md §7). Off = rebuild + cold-solve at every guess over the
  /// same candidate snapshots (so both modes follow bit-identical
  /// trajectories), kept for equivalence testing and the E7 ablation.
  /// Note this is *not* byte-for-byte the seed algorithm: the seed built
  /// each guess's network on the per-guess refined core, which can be
  /// smaller than the snapshot this engine solves on.
  bool incremental_probe = true;
  /// Which max-flow kernel answers the min-cut probes (flow/flow_engine.h).
  /// Pure performance knob: results are bit-identical across engines
  /// because every engine reports the same minimal min cut. `kAuto` runs
  /// warm-started Dinic on incremental reparameterized re-solves and, on
  /// fresh network builds, push-relabel when the network has at least
  /// kAutoPushRelabelMinArcs residual arcs, Dinic below (DESIGN.md §12).
  FlowEngine flow_engine = FlowEngine::kAuto;
  /// Record per-network node counts in SolverStats::network_sizes.
  bool record_network_sizes = false;
  /// Safety limit for the non-D&C exhaustive ratio enumeration, which
  /// materializes O(n^2) fractions.
  int64_t max_exhaustive_n = 2000;
  /// Worker count for the ratio-space search (util/thread_pool.h,
  /// DESIGN.md §11). With threads > 1 the divide-and-conquer interval
  /// stack becomes a work-sharing loop (independent intervals probed
  /// concurrently against an atomic shared incumbent, one
  /// ProbeWorkspace per worker) and the exhaustive enumeration fans its
  /// ratios across the pool. The returned density is the exact optimum
  /// either way — pruning against a stale incumbent is only ever
  /// conservative. When the max-density witness is unique the returned
  /// pair is that witness, identical to the sequential solve's; a graph
  /// with several optimum pairs can return any of them (the
  /// lowest-probe-ratio tie-break removes dependence on witness
  /// *reporting* order, but which witnesses get reported at all depends
  /// on pruning against the evolving incumbent and is
  /// schedule-dependent, as are the SolverStats trajectory counters). 1
  /// (the default) runs the historical sequential search,
  /// bit-identically.
  int threads = 1;
};

/// Outcome of probing a single ratio value.
struct RatioProbeResult {
  /// Certified upper bound on the max linearized density at this ratio
  /// over the candidate sets (the final `u` of the binary search).
  double h_upper = 0;
  /// Highest witnessed linearized density (final `l`), or `lower_start`
  /// if no feasible guess was found.
  double last_feasible = 0;
  /// Best extracted pair by true density (may be empty).
  DdsPair best_pair;
  double best_density = 0;
  int64_t iterations = 0;
  int64_t networks_built = 0;
  /// Guesses served by reparameterizing the existing network instead of
  /// rebuilding it (always 0 when the probe runs non-incrementally).
  int64_t networks_reused = 0;
  /// Augmenting paths pushed by warm-started re-solves.
  int64_t warm_start_augmentations = 0;
  /// Residual arcs examined by the max-flow kernels across all guesses.
  int64_t arcs_scanned = 0;
  /// Global relabels performed by push-relabel solves.
  int64_t global_relabels = 0;
  /// Max-flow solves answered by each kernel (what `auto` actually ran).
  int64_t flow_solves_dinic = 0;
  int64_t flow_solves_push_relabel = 0;
  int64_t max_network_nodes = 0;
  /// Per-network node counts; filled only when record_sizes is set.
  std::vector<int64_t> network_sizes;
};

/// Reusable state shared by every probe of a solve: the epoch-stamped
/// build scratch that keeps per-network construction cost proportional to
/// the (core-pruned) candidate sets instead of O(n), plus the membership
/// marks of the candidate sets the current network was built on (the
/// parametric engine's reuse test). Created once by SolveExactDds and
/// threaded through each ProbeRatio call; stateless callers may pass
/// nullptr and a private workspace is used.
struct ProbeWorkspace {
  DdsBuildScratch build_scratch;
  EpochSet built_s_marks;
  EpochSet built_t_marks;
  /// Scratch for the per-guess core refinement, so each refinement costs
  /// O(candidates), not O(n) (core/xy_core.h).
  XyCoreScratch refine_scratch;
};

/// Binary search with min-cut feasibility tests at a fixed `ratio`,
/// restricted to the given candidate sides. `lower_start` is a value below
/// which the search need not certify anything (pass 0 for a full h(a)
/// computation); `upper_start` must be a certified upper bound on the max
/// linearized density. `delta` is the termination gap (see
/// ExactSearchDelta). `stop_below` lets the caller truncate the descent:
/// once the upper bound u falls to or below it, the probe exits early with
/// h_upper = u — the divide-and-conquer engine passes incumbent /
/// phi(interval), the weakest bound that still lets both adjacent
/// subintervals be pruned.
///
/// With `incremental` set (the default), the probe runs on the parametric
/// engine: a network is kept across guesses and retargeted to each new
/// one with Reparameterize, warm-starting the flow from the previous
/// residual state. When the guess rises the per-guess core shrinks and
/// the sink capacities only grow, so the network stays valid and the old
/// max flow stays feasible; when the guess falls below every previously
/// built level the core can outgrow the network's node set, and only then
/// is the network rebuilt (DESIGN.md §7). `incremental = false` rebuilds
/// and re-solves from scratch at every guess over the *same* candidate
/// sets; both modes follow identical search trajectories (same guesses,
/// same node sets, same minimal min cuts, hence identical witnesses),
/// which the equivalence tests assert bit-exactly.
///
/// `control`, when non-null, is checked before every guess; once it fires
/// the probe exits immediately. The returned h_upper (the current `u`) is
/// still a certified upper bound — u only ever decreased under certified
/// infeasibility — and last_feasible / best_pair are still witnessed, so a
/// truncated probe degrades gracefully to a looser but valid certificate.
template <typename G>
RatioProbeResult ProbeRatio(const G& g,
                            const std::vector<VertexId>& s_candidates,
                            const std::vector<VertexId>& t_candidates,
                            const Fraction& ratio, double lower_start,
                            double upper_start, double delta,
                            bool refine_cores, bool record_sizes,
                            double stop_below = 0.0,
                            ProbeWorkspace* workspace = nullptr,
                            bool incremental = true,
                            FlowEngine engine = FlowEngine::kAuto,
                            SolveControl* control = nullptr);

extern template RatioProbeResult ProbeRatio<Digraph>(
    const Digraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const Fraction&, double, double, double,
    bool, bool, double, ProbeWorkspace*, bool, FlowEngine, SolveControl*);
extern template RatioProbeResult ProbeRatio<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const Fraction&, double, double, double,
    bool, bool, double, ProbeWorkspace*, bool, FlowEngine, SolveControl*);

/// Termination gap for the binary searches: below the minimum spacing of
/// distinct (linearized) density values, clamped to [1e-12, 1e-4]. For
/// graphs small enough that the exact spacing bound 1/(2 W n^3) exceeds
/// 1e-12 (W = total edge weight, = m unweighted) the search is provably
/// exact; beyond that it is exact up to the clamp (validated by
/// cross-checks in tests).
template <typename G>
double ExactSearchDelta(const G& g);

extern template double ExactSearchDelta<Digraph>(const Digraph&);
extern template double ExactSearchDelta<WeightedDigraph>(
    const WeightedDigraph&);

/// Runs the exact engine with the given options.
///
/// `control` adds anytime semantics: if the deadline passes or the
/// cancellation callback fires mid-solve, the engine unwinds and returns
/// the incumbent with `interrupted = true` and a certified
/// `[lower_bound, upper_bound]` bracket of the optimum — the lower bound
/// is the incumbent's exactly evaluated density, the upper bound is the
/// max of the interval bounds still outstanding (capped by the global
/// bound). These semantics survive `threads > 1`: the control is
/// thread-safe, a truncated probe still returns certified bounds, every
/// in-flight interval deposits its subintervals on the shared stack
/// before its worker exits, and the anytime bound is derived from the
/// drained stack once all workers have stopped. `workspace`, when
/// non-null, supplies long-lived scratch reused across solves (DdsEngine
/// owns one per graph); solves are bit-identical with or without a
/// pre-used workspace. Under `threads > 1` the caller's workspace serves
/// worker 0 and the remaining workers run on per-solve private
/// workspaces.
///
/// On the weighted instantiation all densities are weighted densities and
/// `pair_edges` carries w(E(S,T)); on an all-weights-1 graph the solve is
/// bit-identical to the unweighted instantiation (tested).
template <typename G>
DdsSolution SolveExactDds(const G& g, const ExactOptions& options,
                          SolveControl* control = nullptr,
                          ProbeWorkspace* workspace = nullptr);

extern template DdsSolution SolveExactDds<Digraph>(const Digraph&,
                                                   const ExactOptions&,
                                                   SolveControl*,
                                                   ProbeWorkspace*);
extern template DdsSolution SolveExactDds<WeightedDigraph>(
    const WeightedDigraph&, const ExactOptions&, SolveControl*,
    ProbeWorkspace*);

/// The paper's exact algorithm: all optimizations enabled.
DdsSolution CoreExact(const Digraph& g);

/// Divide and conquer only (no core pruning, no warm start) — the middle
/// rung of the ablation ladder.
DdsSolution DcExact(const Digraph& g);

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_CORE_EXACT_H_
