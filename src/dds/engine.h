#ifndef DDSGRAPH_DDS_ENGINE_H_
#define DDSGRAPH_DDS_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "dds/batch_peel_approx.h"
#include "dds/control.h"
#include "dds/core_exact.h"
#include "dds/peel_approx.h"
#include "dds/result.h"
#include "dds/solver.h"
#include "graph/digraph.h"
#include "util/status.h"

/// \file
/// The unified query API over all DDS solvers (DESIGN.md §8).
///
/// A `DdsRequest` names an algorithm and carries every knob a solve can
/// take — the exact engine's `ExactOptions`, the approximation options, a
/// wall-clock deadline and a progress/cancellation callback. A `DdsEngine`
/// is constructed once over a `Digraph` or a `WeightedDigraph` and owns
/// the long-lived scratch (`ProbeWorkspace`: build scratch + epoch sets),
/// so repeated queries on the same graph amortize setup — the serving
/// scenario. `AlgorithmRegistry()` is the single source of truth for every
/// algorithm's name and exactness; `AlgorithmName` / `ParseAlgorithmName` /
/// `IsExactAlgorithm` and the CLI `--algo` help string all derive from it.
/// Every solver is one template over `DigraphT<WeightPolicy>`, so `Solve`
/// picks the weight flavor once (one `std::visit` over the bound graph)
/// and one templated runner switches on the algorithm.
///
/// Exact solves are *anytime*: when the deadline passes or the callback
/// cancels, the solve unwinds and returns the incumbent pair with
/// `DdsSolution::interrupted` set and a still-certified
/// `[lower_bound, upper_bound]` bracket of the optimum.

namespace ddsgraph {

/// One DDS query: the algorithm plus every option it may consume.
/// Options irrelevant to the chosen algorithm are ignored and left
/// unvalidated (e.g. `peel` for kCoreExact), so one request object can
/// be reused across algorithms; `exact` is consumed verbatim by
/// kCoreExact, while kFlowExact / kDcExact overlay their defining
/// ablation flags on it via ExactPresetFor (dds/solver.h). The exact
/// engine is one weight-generic template (dds/core_exact.h), so `exact`
/// is honored identically on weighted engines — every flag, ablation
/// preset and the anytime semantics apply to weighted solves too.
struct DdsRequest {
  DdsAlgorithm algorithm = DdsAlgorithm::kCoreExact;
  ExactOptions exact;           ///< exact-engine feature flags
  PeelApproxOptions peel;       ///< knobs for kPeelApprox
  BatchPeelOptions batch_peel;  ///< knobs for kBatchPeelApprox
  /// Wall-clock budget in seconds for this solve; infinity (the default)
  /// means none. The flow-based exact solvers (flow-exact, dc-exact,
  /// core-exact, weighted or not) honor it with anytime semantics;
  /// naive-exact and lp-exact run to completion regardless
  /// (they are small-graph certifiers with no incremental certificate to
  /// return), and the single-pass approximations ignore it (they are
  /// already the fast path). Must be positive and not NaN.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Optional progress hook, also the cancellation path: return false to
  /// stop the solve (see dds/control.h for cadence and field semantics).
  DdsProgressCallback progress;
  /// Worker count for the parallel solve layer (util/thread_pool.h,
  /// DESIGN.md §11): fans the peel ladder, the batch-peel threshold
  /// scans, the core-approx skyline walk and the exact ratio-space
  /// search across this many shared-memory workers. 1 (the default) is
  /// the historical sequential behavior, bit-identically. The
  /// approximations return bit-identical solutions for every thread
  /// count; the exact solvers return the same optimum density, and the
  /// same pair as the sequential solve whenever the max-density witness
  /// is unique (equal-density witnesses resolve deterministically to the
  /// lowest probe ratio, which can differ from the sequential
  /// first-witness order) — trajectory counters are schedule-dependent
  /// either way. naive-exact and
  /// lp-exact run single-threaded regardless (small-graph certifiers).
  /// Must be >= 1. The engine clamps the count to the probed hardware
  /// concurrency before dispatch — CPU-bound peels and probes only lose
  /// to oversubscription (interleaved passes thrash the cache), and a
  /// serving facade must not let one request spawn unbounded threads.
  /// Callers that really want oversubscription (e.g. concurrency tests
  /// on small machines) pass exact counts to the solver free functions,
  /// which honor them verbatim.
  int threads = 1;
};

/// Request-time validation: known algorithm, positive non-NaN deadline,
/// and — for the options the chosen algorithm actually consumes —
/// `max_exhaustive_n >= 1` and positive finite approximation epsilons.
/// `exact` is validated for the exact algorithms regardless of graph
/// weighting, since weighted engines honor every ExactOptions flag.
/// Solve() runs this first, so callers only need it to fail fast earlier.
Status ValidateRequest(const DdsRequest& request);

/// A reusable solver facade bound to one graph. Not thread-safe: one
/// engine serves one query at a time (give each thread its own engine
/// over the same graph, or serialize externally the way the serve
/// scheduler does — one mutex per catalog entry). The graph must outlive
/// the engine.
///
/// The no-concurrent-solves contract is *enforced*, not assumed: Solve
/// latches an atomic busy flag for its duration and a second Solve that
/// races it returns StatusCode::kUnavailable instead of corrupting the
/// shared workspace. The check is one uncontended atomic RMW per solve —
/// nanoseconds against solves that run min-cuts — so it is on in every
/// build, keeping release servers protected and the failure a clean
/// Status in both.
class DdsEngine {
 public:
  /// An engine over a WeightedDigraph serves the full registry under the
  /// weighted objective w(E(S,T))/sqrt(|S||T|).
  explicit DdsEngine(const Digraph& graph) : graph_(&graph) {}
  explicit DdsEngine(const WeightedDigraph& graph) : graph_(&graph) {}

  /// Validates and runs `request` on the bound graph. Errors
  /// (invalid options, oversized graphs for the guarded algorithms) come
  /// back as a Status instead of aborting. The returned
  /// solution is bit-identical to the corresponding one-shot free-function
  /// call; `stats.prior_engine_solves` records how many earlier solves the
  /// engine's workspace already served, and `stats.seconds` is always the
  /// facade-level wall time.
  Result<DdsSolution> Solve(const DdsRequest& request);

  /// Number of successful solves served so far.
  int64_t num_solves() const { return num_solves_; }

 private:
  std::variant<const Digraph*, const WeightedDigraph*> graph_;
  /// Long-lived scratch threaded into the flow-based exact solvers.
  ProbeWorkspace workspace_;
  int64_t num_solves_ = 0;
  /// Solves that ran through `workspace_` (feeds prior_engine_solves).
  int64_t workspace_solves_ = 0;
  /// Busy latch for the reentrancy check (see the class comment).
  std::atomic_flag solving_ = ATOMIC_FLAG_INIT;
};

/// One registry row. Every algorithm is a weight-generic template, so
/// engines of both weight flavors serve every row.
struct AlgorithmInfo {
  DdsAlgorithm algorithm;
  const char* name;  ///< canonical lower-case CLI name
  bool exact;        ///< returns the optimum when uninterrupted
  /// True when the algorithm solves through the engine-owned
  /// ProbeWorkspace (the flow-based exact solvers); drives the
  /// prior_engine_solves provenance counter and implies the anytime
  /// deadline is honored.
  bool uses_workspace;
};

/// The algorithm table, in enum order — the one source of truth for
/// names and exactness.
std::span<const AlgorithmInfo> AlgorithmRegistry();

/// Registry lookup by enum / by canonical name; nullptr when unknown.
const AlgorithmInfo* FindAlgorithm(DdsAlgorithm algorithm);
const AlgorithmInfo* FindAlgorithm(std::string_view name);

/// All registered names joined with " | " — the CLI --algo help string.
std::string AlgorithmNamesHelp();

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_ENGINE_H_
