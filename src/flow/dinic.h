#ifndef DDSGRAPH_FLOW_DINIC_H_
#define DDSGRAPH_FLOW_DINIC_H_

#include <cstdint>
#include <vector>

#include "flow/flow_network.h"

/// \file
/// Dinic's max-flow algorithm (BFS level graph + DFS blocking flows), the
/// one max-flow kernel behind every min cut of the exact DDS solvers
/// (DESIGN.md §12).
///
/// O(V^2 E) in general, O(E sqrt(V)) on unit-capacity networks — the DDS
/// networks are dominated by unit arcs. Fresh probe networks are solved
/// from zero (Solve), reparameterized ones warm-started (Resolve). Either
/// way the residual source side is the unique minimal min cut, so the
/// witnesses do not depend on how the flow was reached.
///
/// The solver iterates the network's finalized CSR layout (DESIGN.md §12)
/// and epoch-stamps its per-node phase state (levelling a node also
/// resets its current-arc slot) so each BFS phase resets in O(nodes
/// touched) rather than O(n) — on core-reduced networks most nodes are
/// never reached and pay nothing.
///
/// The solver is warm-startable: Resolve() augments from whatever flow the
/// residual network already carries, which is how the parametric probe
/// engine (DESIGN.md §7) re-solves the same network across binary-search
/// guesses without starting from zero.

namespace ddsgraph {

class Dinic {
 public:
  /// Wraps `network` (not owned); Solve mutates its residual capacities
  /// and finalizes the network if it is not finalized yet.
  explicit Dinic(FlowNetwork* network);

  /// Computes the maximum s-t flow and returns its value, assuming the
  /// wrapped network carries no flow yet (residuals == initial
  /// capacities). Residual capacities in the network reflect the final
  /// flow. Resets the phase/augmentation/arc-scan counters.
  FlowCap Solve(uint32_t source, uint32_t sink);

  /// Warm start: augments from the *current* residual state — which may
  /// already carry a feasible flow from a previous Solve/Resolve, possibly
  /// reshaped by FlowNetwork::SetArcCapacity — until the flow is maximum
  /// again. Returns only the additional flow pushed. Counters accumulate
  /// so the incremental work stays observable.
  FlowCap Resolve(uint32_t source, uint32_t sink);

  /// Number of BFS phases used since the last Solve (statistics for E10).
  int64_t num_phases() const { return num_phases_; }

  /// Number of augmenting paths pushed since the last Solve.
  int64_t num_augmentations() const { return num_augmentations_; }

  /// Residual arcs examined (BFS + DFS) since the last Solve.
  int64_t arcs_scanned() const { return arcs_scanned_; }

 private:
  void EnsureSized();
  bool BuildLevels(uint32_t source, uint32_t sink);
  FlowCap BlockingFlow(uint32_t source, uint32_t sink);
  FlowCap AugmentToMax(uint32_t source, uint32_t sink);

  /// Level of `v` in the current phase; -1 when v was not reached (or not
  /// yet stamped this phase).
  int32_t Level(uint32_t v) const {
    return level_stamp_[v] == epoch_ ? level_[v] : -1;
  }
  /// Stamps `v` into the current phase and resets its current-arc slot.
  /// BlockingFlow only ever walks levelled nodes, so `iter_` needs no
  /// stamp of its own — levelling doubles as its per-phase reset.
  void SetLevel(uint32_t v, int32_t level) {
    level_stamp_[v] = epoch_;
    level_[v] = level;
    iter_[v] = net_->FirstOut(v);
  }

  FlowNetwork* net_;
  uint32_t epoch_ = 0;  ///< bumped per BFS phase; stamps level_
  std::vector<int32_t> level_;
  std::vector<uint32_t> level_stamp_;
  std::vector<uint32_t> iter_;  ///< CSR adjacency slots, not arc ids
  std::vector<uint32_t> queue_;
  std::vector<uint32_t> path_;      ///< arc stack of the in-progress DFS
  std::vector<FlowCap> path_cap_;   ///< prefix-min residual along path_
  int64_t num_phases_ = 0;
  int64_t num_augmentations_ = 0;
  int64_t arcs_scanned_ = 0;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_FLOW_DINIC_H_
