#ifndef DDSGRAPH_DDS_CORE_EXACT_H_
#define DDSGRAPH_DDS_CORE_EXACT_H_

#include <cstdint>
#include <vector>

#include "core/xy_core.h"
#include "dds/control.h"
#include "dds/result.h"
#include "flow/dds_network.h"
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
///     p/q (p, q <= n) with a search of min-cut feasibility tests on
///     the whole graph — the Khuller-Saha-style state of the art the paper
///     compares against.
///   * DcExact: explore the ratio space by divide and conquer, pruning
///     intervals with the phi bound once the incumbent is high enough.
///   * CoreExact (the paper's algorithm): DcExact plus (i) warm-starting
///     the incumbent with CoreApprox, (ii) locating candidates inside the
///     [x,y]-core implied by the incumbent and the ratio interval, and
///     (iii) re-peeling the core as the probe's lower bound rises,
///     so flow networks shrink across iterations.
///
/// Correctness invariants maintained throughout (see core_exact.cc):
///   * the incumbent is always a real pair with exactly evaluated density;
///   * every interval is discarded only under a certified upper bound;
///   * feasibility of a guess is decided by exhibiting a witness pair from
///     the min cut and evaluating it exactly, so the lower bound of a
///     probe never rests on floating-point flow values.

namespace ddsgraph {

/// Feature flags of the exact engine. Defaults = CoreExact.
struct ExactOptions {
  /// Divide and conquer over ratio intervals instead of enumerating all
  /// O(n^2) realizable ratios.
  bool divide_and_conquer = true;
  /// Restrict each probe to the [x,y]-core implied by the incumbent
  /// density and the ratio interval (Pruning 1/2 of the paper).
  bool core_pruning = true;
  /// Within a probe, re-peel the candidate core each time the search
  /// raises its lower bound, shrinking the flow networks
  /// (Pruning 3 / "networks gradually become smaller").
  bool refine_cores_in_probe = true;
  /// Seed the incumbent (and the global upper bound) with CoreApprox.
  bool approx_warm_start = true;
  /// Run each ratio probe on the parametric engine: build the flow network
  /// once per candidate set, Reparameterize between guesses,
  /// and warm-start the max flow from the previous residual state
  /// (DESIGN.md §7). Off = rebuild + cold-solve at every guess over the
  /// same candidate snapshots (so both modes follow bit-identical
  /// trajectories), kept for equivalence testing and the E7 ablation.
  /// Note this is *not* byte-for-byte the seed algorithm: the seed built
  /// each guess's network on the per-guess refined core, which can be
  /// smaller than the snapshot this engine solves on.
  bool incremental_probe = true;
  /// Record per-network node counts in SolverStats::network_sizes.
  bool record_network_sizes = false;
  /// Safety limit for the non-D&C exhaustive ratio enumeration, which
  /// materializes O(n^2) fractions.
  int64_t max_exhaustive_n = 2000;
  /// Worker count for the ratio-space search (util/thread_pool.h,
  /// DESIGN.md §11). The divide-and-conquer interval stack is a
  /// work-sharing loop (independent intervals probed concurrently against
  /// a shared incumbent, one ProbeWorkspace per worker) and the exhaustive
  /// enumeration fans its ratios across the pool; at 1 (the default) the
  /// same loops run inline on the caller. The returned density is the
  /// exact optimum at every thread count — pruning against a stale
  /// incumbent is only ever conservative. When the max-density witness is
  /// unique the returned pair is that witness; a graph with several
  /// optimum pairs can return any of them once threads > 1 (the
  /// lowest-probe-ratio tie-break removes dependence on witness
  /// *reporting* order, but which witnesses get reported at all depends
  /// on pruning against the evolving incumbent and is schedule-dependent,
  /// as are the SolverStats trajectory counters).
  int threads = 1;
};

/// Outcome of probing a single ratio value.
struct RatioProbeResult {
  /// Certified upper bound on the max linearized density at this ratio
  /// over the candidate sets (the search's final `u`).
  double h_upper = 0;
  /// Highest witnessed linearized density (final `l`), or `lower_start`
  /// if no feasible guess was found.
  double last_feasible = 0;
  /// Best extracted pair by true density (may be empty).
  DdsPair best_pair;
  double best_density = 0;
  /// The probe's flow work; `flow_networks_reused` stays 0 when the probe
  /// runs non-incrementally, and `network_sizes` is filled only under
  /// ExactOptions::record_network_sizes.
  FlowCounters flow;
};

/// The search window of one ProbeRatio call.
struct ProbeWindow {
  Fraction ratio;
  /// A value below which the search need not certify anything (0 for a
  /// full h(a) computation). The probe bisects until its first witness
  /// lifts `l` above it, then takes Newton steps.
  double lower_start = 0;
  /// A certified upper bound on the max linearized density.
  double upper_start = 0;
  /// Termination gap (see ExactSearchDelta).
  double delta = 0;
  /// Truncates the search: once the upper bound u falls to or below it,
  /// the probe exits early with h_upper = u. After a witness below it the
  /// next guess is `stop_below` itself, so one empty cut ends the probe.
  double stop_below = 0;
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

/// Min-cut feasibility search at `window.ratio`, restricted to the given
/// candidate sides, over [`window.lower_start`, `window.upper_start`]
/// until the gap closes below `window.delta`. Until the first feasible
/// cut the search bisects; from then on it asks only whether anything
/// beats the current witness, guessing `l + delta/2` (or the next double
/// above `l` once that rounds back to `l`; or `stop_below` while the
/// witness is still below it), and the first empty cut ends the probe
/// (DESIGN.md §3). The divide-and-conquer engine passes `stop_below` =
/// incumbent / phi(interval), the weakest bound that still lets both
/// adjacent subintervals be pruned. Of `options`, only the probe-engine
/// knobs are read: `refine_cores_in_probe`, `record_network_sizes` and
/// `incremental_probe`. Every min cut is solved by Dinic: warm-started
/// (`Resolve`) on a reparameterized network, from zero (`Solve`) on a
/// fresh build (DESIGN.md §12).
///
/// With `incremental_probe` set (the default), the probe runs on the
/// parametric engine: a network is kept across guesses and retargeted to
/// each new one with Reparameterize, warm-starting the flow from the
/// previous residual state. When the guess rises the per-guess core
/// shrinks and the sink capacities only grow, so the network stays valid
/// and the old max flow stays feasible; when the guess falls below every
/// previously built level the core can outgrow the network's node set,
/// and only then is the network rebuilt (DESIGN.md §7). Guesses fall only
/// before the first witness, so the network valid at the first feasible
/// guess serves the rest of the probe. Without it the
/// probe rebuilds and re-solves from scratch at every guess over the
/// *same* candidate sets; both modes follow identical search trajectories
/// (same guesses, same node sets, same minimal min cuts, hence identical
/// witnesses), which the equivalence tests assert bit-exactly.
///
/// `control`, when non-null, is checked before every guess; once it fires
/// the probe exits immediately. The returned h_upper (the current `u`) is
/// still a certified upper bound — u only ever decreased under certified
/// infeasibility — and last_feasible / best_pair are still witnessed, so a
/// truncated probe degrades gracefully to a looser but valid certificate.
/// After the first witness `u` stays at the last infeasible bisection
/// guess until the final empty cut, so a probe truncated in that phase
/// certifies a looser `h_upper` than a bisecting probe would have.
/// A null `workspace` runs on private scratch.
template <typename G>
RatioProbeResult ProbeRatio(const G& g,
                            const std::vector<VertexId>& s_candidates,
                            const std::vector<VertexId>& t_candidates,
                            const ProbeWindow& window,
                            const ExactOptions& options,
                            ProbeWorkspace* workspace = nullptr,
                            SolveControl* control = nullptr);

extern template RatioProbeResult ProbeRatio<Digraph>(
    const Digraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const ProbeWindow&, const ExactOptions&,
    ProbeWorkspace*, SolveControl*);
extern template RatioProbeResult ProbeRatio<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const ProbeWindow&, const ExactOptions&,
    ProbeWorkspace*, SolveControl*);

/// Termination gap for the ratio probes: below the minimum spacing of
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
/// bound). These semantics hold at every thread count: the control is
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

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_CORE_EXACT_H_
