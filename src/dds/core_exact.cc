#include "dds/core_exact.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "core/core_approx.h"
#include "core/xy_core.h"
#include "dds/ratio_space.h"
#include "dds/solver.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "flow/min_cut.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// Core thresholds implied by density `rho` at ratio bounds [sqrt_lo,
// sqrt_hi]: any pair strictly denser than rho with ratio a in the interval
// has S-side out-degrees > rho/(2 sqrt(a)) >= rho/(2 sqrt_hi) and T-side
// in-degrees > rho*sqrt(a)/2 >= rho*sqrt_lo/2 (DESIGN.md §2, containment).
// Degrees are integers, so they are >= floor(bound)+1. The same containment
// holds verbatim for weighted degrees (integer weights).
int64_t SideThreshold(double bound) {
  return static_cast<int64_t>(std::floor(bound)) + 1;
}

template <typename G>
struct EngineState {
  const G* g = nullptr;
  ExactOptions options;
  double delta = 0;
  double upper_global = 0;
  DdsPair incumbent;
  double incumbent_density = 0;
  /// Build scratch shared by every probe of the solve, so per-network
  /// construction cost tracks the candidate sets, not O(n) (DESIGN.md §7).
  /// Points at the caller's workspace (DdsEngine reuse) or at `owned`.
  ProbeWorkspace* workspace = nullptr;
  ProbeWorkspace owned_workspace;
  /// Deadline/cancellation hook; may be null. When it fires, the solve
  /// unwinds with `interrupted` set and `anytime_upper` a certified upper
  /// bound covering every ratio not yet exactly resolved.
  SolveControl* control = nullptr;
  bool interrupted = false;
  double anytime_upper = 0;
  SolverStats stats;
};

// The engine state a stop check reports to the progress callback. Taken
// under the engine mutex; the control (and with it the user callback)
// runs outside it, so a slow callback never serializes the other workers.
// The stop latch is sticky and atomic, so every worker sees a stop.
template <typename G>
DdsProgress ProgressOf(const EngineState<G>& state) {
  DdsProgress progress;
  progress.lower_bound = state.incumbent_density;
  progress.upper_bound = state.upper_global;
  progress.ratios_probed = state.stats.ratios_probed;
  progress.binary_search_iters = state.stats.binary_search_iters;
  return progress;
}

// Marks the solve interrupted and derives the anytime upper bound via
// AnytimeUpperBound (dds/ratio_space.h). Pass nullptr when interrupted
// before the interval bookkeeping exists (endpoint probes, exhaustive
// sweep); the global bound is the only certificate then.
template <typename G>
void FinishInterrupted(EngineState<G>* state,
                       const std::vector<RatioInterval>* work) {
  state->interrupted = true;
  if (work == nullptr) {
    state->anytime_upper = state->upper_global;
    return;
  }
  state->anytime_upper =
      AnytimeUpperBound(state->incumbent_density, state->delta, *work,
                        state->upper_global);
}

template <typename G>
void AbsorbProbeStats(const RatioProbeResult& probe, EngineState<G>* state) {
  ++state->stats.ratios_probed;
  state->stats += probe.flow;
}

// Provenance of the incumbent: the ratio of the probe that set it, or
// "not from a probe" for the warm start.
struct IncumbentTie {
  Fraction ratio;
  bool from_probe = false;
};

// The incumbent merge (DESIGN.md §11): a probe witness replaces the
// incumbent when it is strictly denser, or when it ties on density at a
// lower probe ratio than the probe witness it would replace; the
// warm-start incumbent is kept on ties. Among the witnesses that get
// reported the incumbent therefore does not depend on reporting order.
// (Which equal-density witnesses are reported at all still depends on
// pruning against the evolving incumbent — only a unique max-density
// witness makes the returned pair schedule-independent; see
// ExactOptions::threads.)
template <typename G>
void MaybeUpdateIncumbent(const RatioProbeResult& probe,
                          const Fraction& ratio, EngineState<G>* state,
                          IncumbentTie* tie) {
  if (probe.best_pair.Empty()) return;
  const bool better = probe.best_density > state->incumbent_density;
  const bool tie_better = probe.best_density == state->incumbent_density &&
                          tie->from_probe &&
                          FractionLess(ratio, tie->ratio);
  if (better || tie_better) {
    state->incumbent = probe.best_pair;
    state->incumbent_density = probe.best_density;
    tie->ratio = ratio;
    tie->from_probe = true;
  }
}

/// A located candidate core — the [x,y]-core of an interval context.
/// Shared immutably between the interval's two children, which locate
/// their (nested) cores *within* it instead of peeling the full graph.
struct CoreContext {
  std::vector<VertexId> s;
  std::vector<VertexId> t;
};
using CoreContextPtr = std::shared_ptr<const CoreContext>;

struct ContextProbe {
  RatioProbeResult probe;
  /// True when the context core was empty: no pair with ratio anywhere in
  /// (lo_ctx, hi_ctx) can beat the incumbent (containment), so the caller
  /// may discard the entire context, not just this ratio.
  bool context_exhausted = false;
  /// The candidate core this probe ran on (null when core pruning was
  /// off or the incumbent was still 0). Handed to the child intervals.
  CoreContextPtr located;
};

// Probes `ratio` in the interval context (lo_ctx, hi_ctx): candidates are
// located in the [x,y]-core implied by `incumbent_density` and the
// context (when core pruning is on). The search starts from 0 so
// that the returned h_upper genuinely tracks h(ratio) — that is what
// powers the interval pruning — but is truncated at `stop_below` (see
// header). Reads only the fields of `state` that are fixed for the whole
// search, so workers run probes side by side (each on its own
// `workspace`) and absorb the results under the engine mutex afterwards.
// Any valid lower bound works as `incumbent_density`; a stale (smaller)
// one merely yields a larger candidate core, never a wrong answer.
//
// `within`, when non-null, is a previously located core whose thresholds
// were no stronger than this context's — the parent interval's candidate
// core. Cores are nested, so the context core is located *inside it* in
// O(|within|) instead of peeling the full graph (the same fixpoint comes
// out; only the cost changes). The D&C loop threads each probe's located
// core to its two subintervals: the incumbent only rises and a child
// context is a sub-interval, so the child's [x,y]-thresholds dominate
// the parent's and the containment prerequisite always holds.
template <typename G>
ContextProbe ProbeInContextAt(const EngineState<G>& state,
                              double incumbent_density, const Fraction& ratio,
                              const Fraction& lo_ctx, const Fraction& hi_ctx,
                              double stop_below, const CoreContext* within,
                              ProbeWorkspace* workspace) {
  const G& g = *state.g;
  ContextProbe result;
  std::vector<VertexId> s_cand;
  std::vector<VertexId> t_cand;
  const std::vector<VertexId>* probe_s = &s_cand;
  const std::vector<VertexId>* probe_t = &t_cand;
  if (state.options.core_pruning && incumbent_density > 0) {
    const double sqrt_lo = std::sqrt(lo_ctx.ToDouble());
    const double sqrt_hi = std::sqrt(hi_ctx.ToDouble());
    const int64_t x_c = SideThreshold(incumbent_density / (2.0 * sqrt_hi));
    const int64_t y_c = SideThreshold(incumbent_density * sqrt_lo / 2.0);
    XyCore core =
        within != nullptr
            ? ComputeXyCoreWithin(g, x_c, y_c, within->s, within->t,
                                  &workspace->refine_scratch)
            : ComputeXyCore(g, x_c, y_c);
    if (core.Empty()) {
      result.probe.h_upper = incumbent_density;
      result.context_exhausted = true;
      return result;
    }
    auto located = std::make_shared<CoreContext>();
    located->s = std::move(core.s);
    located->t = std::move(core.t);
    result.located = std::move(located);
    probe_s = &result.located->s;
    probe_t = &result.located->t;
  } else {
    s_cand.resize(g.NumVertices());
    t_cand.resize(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      s_cand[v] = v;
      t_cand[v] = v;
    }
  }
  const ProbeWindow window{ratio, /*lower_start=*/0.0, state.upper_global,
                           state.delta, stop_below};
  result.probe = ProbeRatio(g, *probe_s, *probe_t, window, state.options,
                            workspace, state.control);
  return result;
}

// Worker 0 probes on the caller's long-lived workspace (the engine
// serving path); the others own per-solve private scratch.
class WorkerWorkspaces {
 public:
  WorkerWorkspaces(ProbeWorkspace* caller, int workers)
      : caller_(caller), private_(static_cast<size_t>(workers - 1)) {}
  ProbeWorkspace* For(int worker) {
    return worker == 0 ? caller_ : &private_[static_cast<size_t>(worker - 1)];
  }

 private:
  ProbeWorkspace* caller_;
  std::vector<ProbeWorkspace> private_;
};

/// An interval on the work stack together with the located core of its
/// *parent* context (null = locate on the full graph).
struct IntervalWork {
  RatioInterval interval;
  CoreContextPtr parent;
};

// The anytime certificate wants the bare intervals of the outstanding
// work (dds/ratio_space.h).
template <typename G>
void FinishInterruptedWork(EngineState<G>* state,
                           const std::vector<IntervalWork>& work) {
  std::vector<RatioInterval> intervals;
  intervals.reserve(work.size());
  for (const IntervalWork& item : work) intervals.push_back(item.interval);
  FinishInterrupted(state, &intervals);
}

// Work-sharing divide and conquer over ratio intervals (DESIGN.md §11):
// the interval stack is a shared pool from which every worker pops,
// probes, and deposits subintervals; all engine-state mutation (stats,
// incumbent, the stack) happens under one mutex. Each worker prunes
// against the freshest incumbent available at pop time; a stale (lower)
// incumbent only makes pruning more conservative, so exactness is
// untouched. Anytime semantics survive: a truncated probe still returns
// certified bounds, its subintervals reach the stack before the worker
// exits, and the certificate is derived from the drained stack once
// every worker has stopped. On one worker this is the plain depth-first
// loop, run inline on the caller.
template <typename G>
void RunDivideAndConquer(EngineState<G>* state, ThreadPool* pool) {
  const int64_t n = state->g->NumVertices();
  const Fraction lo = MinRatio(n);
  const Fraction hi = MaxRatio(n);
  WorkerWorkspaces workspaces(state->workspace, pool->num_workers());
  std::mutex mu;
  IncumbentTie tie;

  // Endpoint probes: each snapshots the incumbent when it starts and is
  // absorbed as soon as it returns, so on one worker `hi` already prunes
  // against `lo`'s witness. Once the control has stopped, a probe not yet
  // started is skipped.
  const int64_t num_endpoints = lo == hi ? 1 : 2;
  double endpoint_upper[2] = {0, 0};
  pool->ParallelFor(num_endpoints, [&](int64_t i, int worker) {
    const Fraction& ratio = i == 0 ? lo : hi;
    double incumbent_snapshot;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (state->control != nullptr && state->control->stopped()) return;
      incumbent_snapshot = state->incumbent_density;
    }
    const ContextProbe probe = ProbeInContextAt(
        *state, incumbent_snapshot, ratio, ratio, ratio, /*stop_below=*/0.0,
        /*within=*/nullptr, workspaces.For(worker));
    std::lock_guard<std::mutex> lock(mu);
    if (!probe.context_exhausted) {
      AbsorbProbeStats(probe.probe, state);
      MaybeUpdateIncumbent(probe.probe, ratio, state, &tie);
    }
    endpoint_upper[i] = probe.probe.h_upper;
  });
  if (state->control != nullptr && state->control->stopped()) {
    FinishInterrupted(state, nullptr);
    return;
  }
  if (num_endpoints == 1) return;

  // The root interval locates its core on the full graph (the endpoint
  // contexts are single ratios with *stronger* thresholds, so their cores
  // do not contain the root's); every descendant locates within its
  // parent's located core.
  std::condition_variable cv;
  std::vector<IntervalWork> work;
  work.push_back(IntervalWork{
      RatioInterval{lo, hi, endpoint_upper[0], endpoint_upper[1]}, nullptr});
  int active = 0;
  bool stop_draining = false;

  pool->RunOnAllWorkers([&](int worker) {
    ProbeWorkspace* workspace = workspaces.For(worker);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      if (stop_draining) break;
      // Deadline/callback checked before each pop.
      if (state->control != nullptr) {
        DdsProgress progress = ProgressOf(*state);
        lock.unlock();
        progress.elapsed_seconds = state->control->ElapsedSeconds();
        const bool stop = state->control->ShouldStop(progress);
        lock.lock();
        if (stop || stop_draining) {
          stop_draining = true;
          cv.notify_all();
          break;
        }
      }
      if (work.empty()) {
        if (active == 0) {
          cv.notify_all();
          break;
        }
        cv.wait(lock);
        continue;
      }
      IntervalWork item = std::move(work.back());
      work.pop_back();
      const RatioInterval interval = item.interval;
      if (!HasRealizableRatioBetween(interval.lo, interval.hi, n)) continue;
      const double bound = IntervalDensityBound(interval);
      const double incumbent_snapshot = state->incumbent_density;
      const double prune_at =
          incumbent_snapshot + 1e-9 * std::max(1.0, incumbent_snapshot);
      if (bound <= prune_at) {
        ++state->stats.intervals_pruned;
        continue;
      }
      std::optional<Fraction> mid = ProbeRatioForInterval(interval, n);
      CHECK(mid.has_value());  // HasRealizableRatioBetween passed
      // The weakest h_upper that still lets both subintervals be pruned:
      // their phi factors are at most this interval's.
      const double interval_phi = RatioMismatchPhi(
          std::sqrt(interval.hi.ToDouble() / interval.lo.ToDouble()));
      const double stop_below = incumbent_snapshot / interval_phi;
      ++active;
      lock.unlock();
      const ContextProbe probe =
          ProbeInContextAt(*state, incumbent_snapshot, *mid, interval.lo,
                           interval.hi, stop_below, item.parent.get(),
                           workspace);
      lock.lock();
      --active;
      if (probe.context_exhausted) {
        // Nothing anywhere in (lo, hi) beats the snapshot incumbent.
        state->stats.intervals_pruned += 2;
        cv.notify_all();
        continue;
      }
      AbsorbProbeStats(probe.probe, state);
      MaybeUpdateIncumbent(probe.probe, *mid, state, &tie);
      // Subintervals reach the stack even after a truncated probe — the
      // truncated h_upper is still certified, which is what keeps the
      // anytime bound valid when the loop drains below.
      work.push_back(IntervalWork{RatioInterval{interval.lo, *mid,
                                                interval.h_upper_lo,
                                                probe.probe.h_upper},
                                  probe.located});
      work.push_back(IntervalWork{RatioInterval{*mid, interval.hi,
                                                probe.probe.h_upper,
                                                interval.h_upper_hi},
                                  probe.located});
      cv.notify_all();
    }
  });

  if (state->control != nullptr && state->control->stopped()) {
    FinishInterruptedWork(state, work);
  }
}

// Exhaustive enumeration: workers claim the realizable ratios in
// ascending order from a shared cursor, each probe truncating its descent
// at the freshest incumbent snapshot. A worker stops claiming as soon as
// the control fires, so a stopped solve returns without walking the
// remaining O(n^2) ratios.
template <typename G>
void RunExhaustive(EngineState<G>* state, ThreadPool* pool) {
  const int64_t n = state->g->NumVertices();
  CHECK_LE(n, state->options.max_exhaustive_n)
      << "exhaustive ratio enumeration is O(n^2); enable "
         "divide_and_conquer for graphs this large";
  const std::vector<Fraction> ratios = AllRealizableRatios(n);
  WorkerWorkspaces workspaces(state->workspace, pool->num_workers());
  std::mutex mu;
  IncumbentTie tie;
  size_t next = 0;
  pool->RunOnAllWorkers([&](int worker) {
    ProbeWorkspace* workspace = workspaces.For(worker);
    while (true) {
      size_t i;
      DdsProgress progress;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next == ratios.size()) return;
        i = next++;
        progress = ProgressOf(*state);
      }
      if (state->control != nullptr) {
        progress.elapsed_seconds = state->control->ElapsedSeconds();
        if (state->control->ShouldStop(progress)) return;
      }
      const Fraction& ratio = ratios[i];
      // At a single ratio, any pair denser than the incumbent has
      // linearized value > incumbent, so the descent may stop there.
      const double incumbent_snapshot = progress.lower_bound;
      const ContextProbe probe = ProbeInContextAt(
          *state, incumbent_snapshot, ratio, ratio, ratio,
          /*stop_below=*/incumbent_snapshot, /*within=*/nullptr, workspace);
      if (probe.context_exhausted) continue;
      std::lock_guard<std::mutex> lock(mu);
      AbsorbProbeStats(probe.probe, state);
      MaybeUpdateIncumbent(probe.probe, ratio, state, &tie);
    }
  });
  // The control can also fire inside the *last* ratio's probe, truncating
  // its descent with no further claim to notice; without this check the
  // solve would claim proven optimality it doesn't have.
  if (state->control != nullptr && state->control->stopped()) {
    FinishInterrupted(state, nullptr);
  }
}

}  // namespace

template <typename G>
double ExactSearchDelta(const G& g) {
  const double n = std::max<double>(2.0, g.NumVertices());
  const double w =
      std::max<double>(1.0, static_cast<double>(g.TotalWeight()));
  const double spacing = 1.0 / (2.0 * w * n * n * n);
  return std::clamp(spacing, 1e-12, 1e-4);
}

template <typename G>
RatioProbeResult ProbeRatio(const G& g,
                            const std::vector<VertexId>& s_candidates,
                            const std::vector<VertexId>& t_candidates,
                            const ProbeWindow& window,
                            const ExactOptions& options,
                            ProbeWorkspace* workspace, SolveControl* control) {
  CHECK_GT(window.delta, 0.0);
  ProbeWorkspace local_workspace;
  if (workspace == nullptr) workspace = &local_workspace;
  RatioProbeResult result;
  result.last_feasible = window.lower_start;
  result.h_upper = window.upper_start;
  if (window.upper_start <= window.lower_start) return result;

  const bool refine_cores = options.refine_cores_in_probe;
  const double sqrt_a = std::sqrt(window.ratio.ToDouble());
  double l = window.lower_start;
  double u = window.upper_start;
  std::vector<VertexId> cur_s = s_candidates;
  std::vector<VertexId> cur_t = t_candidates;

  // Parametric probe state (DESIGN.md §7). The network is built on a
  // snapshot of the candidate sets and stays valid for every guess whose
  // per-guess core is contained in that snapshot: rising guesses shrink
  // the core, so they always reuse; a guess falling below every level
  // built so far can outgrow the snapshot and forces a rebuild.
  // `network.net` lives at a stable address across rebuild-by-assignment,
  // so Dinic wraps it once and the residual state carries over. Warm or
  // cold, the residual source side is the unique minimal min cut, so the
  // witnesses do not depend on how the max flow was reached (DESIGN.md
  // §12).
  DdsNetwork network;
  Dinic dinic(&network.net);
  bool network_valid = false;
  std::vector<VertexId> built_s;  // candidate-set snapshot of `network`
  std::vector<VertexId> built_t;

  const auto contained_in_network = [&](const std::vector<VertexId>& s,
                                        const std::vector<VertexId>& t) {
    for (VertexId v : s) {
      if (!workspace->built_s_marks.Contains(v)) return false;
    }
    for (VertexId v : t) {
      if (!workspace->built_t_marks.Contains(v)) return false;
    }
    return true;
  };

  while (u - l >= window.delta && u > window.stop_below) {
    if (control != nullptr) {
      DdsProgress progress;
      progress.lower_bound = result.best_density;  // probe-local witness
      progress.upper_bound = u;
      progress.binary_search_iters = result.flow.binary_search_iters;
      progress.elapsed_seconds = control->ElapsedSeconds();
      // Exit before the next min cut; u and l stay certified (see header).
      if (control->ShouldStop(progress)) break;
    }
    // Bisect until the first witness; from then on ask only whether
    // anything beats the witness by half a spacing (the parametric /
    // Dinkelbach step), so the first empty cut closes the gap — or, while
    // the witness is still below `stop_below`, whether anything reaches
    // the truncation threshold at all, so one empty cut ends a truncated
    // probe. Every Newton guess sits above every earlier feasible guess,
    // so the network built by then serves to the end (DESIGN.md §7).
    double guess = 0.5 * (l + u);
    if (l > window.lower_start) {
      guess = std::max(l + 0.5 * window.delta, window.stop_below);
      // Large weighted densities: l + delta/2 may round back to l.
      if (guess <= l) guess = std::nextafter(l, u);
    }
    if (guess <= l || guess >= u) break;  // double precision exhausted
    ++result.flow.binary_search_iters;

    // The maximizer of the linearized objective at value > guess has
    // S-side (weighted) degrees > guess/(2 sqrt a) and T-side degrees >
    // guess*sqrt(a)/2 within the candidates, so feasibility of `guess`
    // is unchanged when restricting to this core.
    const std::vector<VertexId>* net_s = &cur_s;
    const std::vector<VertexId>* net_t = &cur_t;
    XyCore refined;
    if (refine_cores) {
      const int64_t x_c = SideThreshold(guess / (2.0 * sqrt_a));
      const int64_t y_c = SideThreshold(guess * sqrt_a / 2.0);
      refined = ComputeXyCoreWithin(g, x_c, y_c, cur_s, cur_t,
                                    &workspace->refine_scratch);
      if (refined.Empty()) {
        u = guess;
        continue;
      }
      net_s = &refined.s;
      net_t = &refined.t;
    }

    // Reuse test: the snapshot the current network was built on must
    // contain every potential witness for this guess. The snapshot is
    // refreshed only when the test fails, in both modes, so incremental
    // and fresh-build-per-guess runs solve min cuts over identical node
    // sets and follow bit-identical trajectories.
    const bool network_sufficient =
        network_valid && contained_in_network(*net_s, *net_t);
    if (!network_sufficient) {
      built_s = *net_s;
      built_t = *net_t;
      workspace->built_s_marks.Clear(g.NumVertices());
      workspace->built_t_marks.Clear(g.NumVertices());
      for (VertexId v : built_s) workspace->built_s_marks.Insert(v);
      for (VertexId v : built_t) workspace->built_t_marks.Insert(v);
    }
    const bool reuse = options.incremental_probe && network_sufficient;
    if (reuse) {
      // Only the two sink-arc capacity families depend on the guess:
      // retarget them in O(|A|+|B|), keeping the feasible part of the
      // previous flow, instead of rebuilding O(nodes + arcs).
      network.Reparameterize(guess);
      ++result.flow.flow_networks_reused;
    } else {
      network = BuildDdsNetwork(g, built_s, built_t, sqrt_a, guess,
                                &workspace->build_scratch);
      network_valid = true;
      ++result.flow.flow_networks_built;
    }
    result.flow.max_network_nodes =
        std::max<int64_t>(result.flow.max_network_nodes, network.NumNodes());
    if (options.record_network_sizes) {
      result.flow.network_sizes.push_back(network.NumNodes());
    }
    if (network.num_pair_edges == 0) {
      // No candidate pair edge in the network: every positive guess over
      // these candidates is infeasible.
      u = guess;
      continue;
    }
    if (reuse) {
      const int64_t augmentations_before = dinic.num_augmentations();
      const int64_t arcs_before = dinic.arcs_scanned();
      dinic.Resolve(network.source, network.sink);
      result.flow.warm_start_augmentations +=
          dinic.num_augmentations() - augmentations_before;
      result.flow.arcs_scanned += dinic.arcs_scanned() - arcs_before;
    } else {
      dinic.Solve(network.source, network.sink);
      result.flow.arcs_scanned += dinic.arcs_scanned();
    }
    ++result.flow.flow_solves_dinic;
    const std::vector<bool> side =
        SourceSideOfMinCut(network.net, network.source);
    ExtractedPair extracted = ExtractPairFromCut(network, side);

    // Witness-based feasibility: the guess is feasible iff the cut-side
    // pair certifiably exceeds it. This keeps `l` anchored to real pairs
    // regardless of floating-point flow values.
    DdsPair pair{std::move(extracted.s), std::move(extracted.t)};
    double lin = 0;
    if (!pair.Empty()) lin = PairLinearizedDensity(g, pair, sqrt_a);
    if (lin > guess) {
      l = std::max(guess, lin - 1e-15 * std::max(1.0, lin));
      const double true_density = PairDensity(g, pair);
      if (true_density > result.best_density) {
        result.best_density = true_density;
        result.best_pair = std::move(pair);
      }
      if (refine_cores) {
        // Candidates better than l stay inside the refined core from now
        // on; shrink the working sets permanently.
        cur_s = std::move(refined.s);
        cur_t = std::move(refined.t);
      }
    } else {
      u = guess;
    }
  }
  result.h_upper = u;
  result.last_feasible = l;
  return result;
}

template <typename G>
DdsSolution SolveExactDds(const G& g, const ExactOptions& options,
                          SolveControl* control, ProbeWorkspace* workspace) {
  CHECK_GE(options.threads, 1);
  WallTimer timer;
  DdsSolution solution;
  if (g.TotalWeight() == 0) return solution;

  // One pool for the whole solve: the warm start's core search and the
  // ratio-space search share it. threads = 1 spawns nothing and runs
  // every phase inline on the caller.
  ThreadPool pool(options.threads);

  EngineState<G> state;
  state.g = &g;
  state.options = options;
  state.control = control;
  state.workspace =
      workspace != nullptr ? workspace : &state.owned_workspace;
  state.delta = ExactSearchDelta(g);
  // rho <= sqrt(W * w_max) for every pair: w(E(S,T)) <= W and
  // w(E(S,T)) <= |S||T| w_max, so rho^2 = w^2/(|S||T|) <= W * w_max.
  // Unweighted this is the familiar sqrt(m).
  state.upper_global =
      std::sqrt(static_cast<double>(g.TotalWeight()) *
                static_cast<double>(g.MaxEdgeWeight()));

  if (options.approx_warm_start) {
    const CoreApproxResult approx = CoreApprox(g, &pool);
    if (!approx.Empty()) {
      state.incumbent = DdsPair{approx.core.s, approx.core.t};
      state.incumbent_density = approx.density;
      state.upper_global = std::min(state.upper_global, approx.upper_bound);
    }
  }

  if (options.divide_and_conquer) {
    RunDivideAndConquer(&state, &pool);
  } else {
    RunExhaustive(&state, &pool);
  }

  solution.pair = std::move(state.incumbent);
  solution.density = PairDensity(g, solution.pair);
  solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
  solution.lower_bound = solution.density;
  if (state.interrupted) {
    solution.interrupted = true;
    solution.upper_bound = std::max(state.anytime_upper, solution.density);
  } else {
    solution.upper_bound = solution.density;
  }
  solution.stats = std::move(state.stats);
  solution.stats.seconds = timer.Seconds();
  return solution;
}

template double ExactSearchDelta<Digraph>(const Digraph&);
template double ExactSearchDelta<WeightedDigraph>(const WeightedDigraph&);
template RatioProbeResult ProbeRatio<Digraph>(
    const Digraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const ProbeWindow&, const ExactOptions&,
    ProbeWorkspace*, SolveControl*);
template RatioProbeResult ProbeRatio<WeightedDigraph>(
    const WeightedDigraph&, const std::vector<VertexId>&,
    const std::vector<VertexId>&, const ProbeWindow&, const ExactOptions&,
    ProbeWorkspace*, SolveControl*);
template DdsSolution SolveExactDds<Digraph>(const Digraph&,
                                            const ExactOptions&,
                                            SolveControl*, ProbeWorkspace*);
template DdsSolution SolveExactDds<WeightedDigraph>(const WeightedDigraph&,
                                                    const ExactOptions&,
                                                    SolveControl*,
                                                    ProbeWorkspace*);

}  // namespace ddsgraph
