#ifndef DDSGRAPH_DDS_RESULT_H_
#define DDSGRAPH_DDS_RESULT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dds/density.h"

/// \file
/// Result and statistics types shared by the DDS solvers.

namespace ddsgraph {

/// The flow work of ratio probes. RatioProbeResult carries one per probe
/// and SolverStats derives from it, so a solve absorbs a probe with one
/// `+=`.
struct FlowCounters {
  int64_t flow_networks_built = 0;   ///< networks constructed from scratch
  int64_t flow_networks_reused = 0;  ///< min-cuts on a reparameterized net
  /// Augmenting paths pushed by warm-started re-solves — the incremental
  /// flow work the parametric probe engine does instead of full solves.
  int64_t warm_start_augmentations = 0;
  /// Residual arcs examined by the max-flow kernels across all probes —
  /// the engine-neutral measure of flow work (E8).
  int64_t arcs_scanned = 0;
  int64_t global_relabels = 0;       ///< push-relabel exact-height rebuilds
  /// Max-flow solves answered by each kernel — what the probe's size rule
  /// (DESIGN.md §12) actually dispatched.
  int64_t flow_solves_dinic = 0;
  int64_t flow_solves_push_relabel = 0;
  int64_t binary_search_iters = 0;   ///< total guesses across all ratios
  int64_t max_network_nodes = 0;     ///< largest flow network constructed
  /// Node count of each flow network in construction order (E8 traces).
  std::vector<int64_t> network_sizes;

  /// Sums the counters, keeps the larger max_network_nodes and appends
  /// `other.network_sizes`.
  FlowCounters& operator+=(const FlowCounters& other) {
    flow_networks_built += other.flow_networks_built;
    flow_networks_reused += other.flow_networks_reused;
    warm_start_augmentations += other.warm_start_augmentations;
    arcs_scanned += other.arcs_scanned;
    global_relabels += other.global_relabels;
    flow_solves_dinic += other.flow_solves_dinic;
    flow_solves_push_relabel += other.flow_solves_push_relabel;
    binary_search_iters += other.binary_search_iters;
    max_network_nodes = std::max(max_network_nodes, other.max_network_nodes);
    network_sizes.insert(network_sizes.end(), other.network_sizes.begin(),
                         other.network_sizes.end());
    return *this;
  }
};

/// Counters describing the work a solver performed; the ablation and
/// network-size experiments (E6-E8) are reported from these.
struct SolverStats : FlowCounters {
  int64_t ratios_probed = 0;         ///< ratio values evaluated with flows
  int64_t intervals_pruned = 0;      ///< D&C intervals discarded by bounds
  /// Number of earlier workspace-using solves whose long-lived scratch
  /// (ProbeWorkspace, epoch sets) this solve inherited: 0 for a one-shot
  /// call or an engine's first flow-based exact solve, k after k such
  /// solves on the same engine. Queries that never touch the workspace
  /// (approximations, naive/lp) do not advance it. This is how
  /// engine-level workspace amortization is observable.
  int64_t prior_engine_solves = 0;
  double seconds = 0;                ///< wall time of the solve
  /// Serving-path latency split (dds_server / RequestScheduler): wall
  /// milliseconds the request waited in the admission queue before a
  /// worker picked it up, and wall milliseconds the solve itself took on
  /// that worker. Both stay 0 for direct library calls — only the serve
  /// scheduler fills them — so the load benchmark can separate queueing
  /// from compute without a second stats channel.
  double queue_ms = 0;
  double solve_ms = 0;
  /// Serving-path provenance markers (RequestScheduler, DESIGN.md §15):
  /// `cache_hit` — this solution came from the response cache, not a
  /// fresh solve (the memoized stats counters are the original solve's);
  /// `coalesced` — this request rode another identical request's
  /// in-flight solve (single-flight). Both stay false for direct library
  /// calls.
  bool cache_hit = false;
  bool coalesced = false;

  std::string ToString() const;
};

/// The output of an exact or approximate DDS solver.
struct DdsSolution {
  DdsPair pair;            ///< the reported (S, T)
  double density = 0;      ///< rho(S, T), exact recomputation
  int64_t pair_edges = 0;  ///< |E(S,T)|
  /// Certified bounds on rho_opt: for exact solvers that run to completion
  /// lower == upper == density (up to numerical tolerance); for
  /// approximations and interrupted exact solves [density, upper_bound]
  /// brackets the optimum.
  double lower_bound = 0;
  double upper_bound = 0;
  /// True when an exact solve was stopped by a deadline or cancellation
  /// callback before proving optimality. The solution then carries the
  /// incumbent pair and a still-certified [lower_bound, upper_bound]
  /// bracket (anytime semantics, DESIGN.md §8).
  bool interrupted = false;
  SolverStats stats;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_RESULT_H_
