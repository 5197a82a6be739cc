#ifndef DDSGRAPH_FLOW_PUSH_RELABEL_H_
#define DDSGRAPH_FLOW_PUSH_RELABEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flow/flow_network.h"

/// \file
/// FIFO push-relabel max-flow with the gap heuristic and periodic global
/// relabeling (exact reverse-BFS heights, re-run every O(n + m) units of
/// discharge/relabel work on top of the initial backward-BFS labelling).
///
/// The exact DDS probes answer fresh builds of at least
/// kPushRelabelMinArcs arcs with it (DESIGN.md §12): on a big cold network
/// it reaches the max flow with far fewer arc scans than Dinic's
/// phase-by-phase blocking flows, while Dinic keeps the warm-started
/// incremental re-solves and the small networks. The test suite
/// cross-checks the two kernels' flow values and minimal min cuts on
/// random and DDS networks.

namespace ddsgraph {

/// Residual-arc count from which a fresh probe network is solved with
/// push-relabel instead of Dinic. Calibrated on E2 (small core-pruned
/// networks, where push-relabel's per-solve setup cost 1.2-1.6x) and E8
/// (>= ~36k-arc kernel datasets, where it wins the cold rmat/planted
/// solves).
inline constexpr size_t kPushRelabelMinArcs = 32768;

class PushRelabel {
 public:
  /// Wraps `network` (not owned); Solve mutates its residual capacities
  /// and finalizes the network if it is not finalized yet.
  explicit PushRelabel(FlowNetwork* network);

  /// Computes the maximum s-t flow value, assuming the wrapped network
  /// carries no flow yet. After Solve, the residual capacities encode a
  /// maximum preflow converted to a flow on the source side of the cut;
  /// min-cut extraction via residual reachability is valid.
  FlowCap Solve(uint32_t source, uint32_t sink);

  /// Relabel operations performed by the last Solve (statistics).
  int64_t num_relabels() const { return num_relabels_; }

  /// Global relabels (periodic exact-height rebuilds) by the last Solve.
  int64_t num_global_relabels() const { return num_global_relabels_; }

  /// Residual arcs examined (discharge + relabel + BFS) by the last Solve.
  int64_t arcs_scanned() const { return arcs_scanned_; }

 private:
  void InitializeHeights(uint32_t source, uint32_t sink);
  void GlobalRelabel(uint32_t source, uint32_t sink);
  void Discharge(uint32_t v, uint32_t source, uint32_t sink);
  void Relabel(uint32_t v);
  void ApplyGapHeuristic(uint32_t empty_height);
  void Enqueue(uint32_t v, uint32_t source, uint32_t sink);

  FlowNetwork* net_;
  std::vector<FlowCap> excess_;
  std::vector<uint32_t> height_;
  std::vector<uint32_t> height_count_;
  std::vector<uint32_t> current_;  ///< CSR adjacency slots, not arc ids
  std::vector<uint32_t> bfs_queue_;
  std::vector<uint32_t> fifo_;
  std::vector<bool> in_fifo_;
  size_t fifo_head_ = 0;
  int64_t num_relabels_ = 0;
  int64_t num_global_relabels_ = 0;
  int64_t arcs_scanned_ = 0;
  int64_t work_since_global_ = 0;  ///< discharge/relabel work accumulator
  int64_t global_relabel_work_ = 0;  ///< threshold; 0 disables
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_FLOW_PUSH_RELABEL_H_
