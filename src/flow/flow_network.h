#ifndef DDSGRAPH_FLOW_FLOW_NETWORK_H_
#define DDSGRAPH_FLOW_FLOW_NETWORK_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

/// \file
/// Residual flow network shared by the max-flow solvers.
///
/// Edges are stored in an arena as (forward, reverse) pairs at indices
/// (2k, 2k+1); `e ^ 1` is the reverse of edge `e`. AddEdge only appends to
/// the arena; Finalize() then counting-sorts the arc ids by tail into a CSR
/// permutation (`adj_` grouped by tail, bracketed by `first_` offsets) that
/// the solvers scan contiguously (DESIGN.md §12). CSR is the only
/// adjacency layout: the topology is frozen by Finalize(), and AddEdge
/// afterwards is a CHECK failure. Arc ids — and with them the `e ^ 1`
/// pairing and every stored capacity — are untouched by the sort, so the
/// parametric mutators below work on arc ids a builder retained.
///
/// Capacities are `double` because the DDS networks carry irrational
/// capacities (multiples of sqrt(ratio)); all solvers treat residuals below
/// `kFlowEps` as saturated.

namespace ddsgraph {

using FlowCap = double;

/// Residual capacities below this threshold are treated as zero.
inline constexpr FlowCap kFlowEps = 1e-9;

class FlowNetwork {
 public:
  /// Creates an empty network with no nodes.
  FlowNetwork() = default;

  /// Creates a network with `num_nodes` nodes and no edges.
  explicit FlowNetwork(uint32_t num_nodes) : num_nodes_(num_nodes) {}

  uint32_t NumNodes() const { return num_nodes_; }
  size_t NumArcs() const { return to_.size(); }  ///< includes reverse arcs

  /// Adds a directed edge u -> v with capacity `cap` (and its residual
  /// reverse arc with capacity `rev_cap`, default 0). Returns the arc index.
  /// Only valid before Finalize().
  uint32_t AddEdge(uint32_t u, uint32_t v, FlowCap cap, FlowCap rev_cap = 0) {
    CHECK(!finalized_) << "AddEdge after Finalize";
    DCHECK_LT(u, NumNodes());
    DCHECK_LT(v, NumNodes());
    DCHECK_GE(cap, 0);
    DCHECK_GE(rev_cap, 0);
    const uint32_t e = static_cast<uint32_t>(to_.size());
    to_.push_back(v);
    to_.push_back(u);
    cap_.push_back(cap);
    cap_.push_back(rev_cap);
    initial_cap_.push_back(cap);
    initial_cap_.push_back(rev_cap);
    return e;
  }

  // --- Arena accessors (hot-path, used by the solvers) ------------------

  uint32_t To(uint32_t arc) const { return to_[arc]; }
  FlowCap Residual(uint32_t arc) const { return cap_[arc]; }
  FlowCap InitialCap(uint32_t arc) const { return initial_cap_[arc]; }

  // --- CSR layout (DESIGN.md §12) ---------------------------------------
  //
  // After Finalize(), node v's out-arcs occupy the contiguous slot range
  // [FirstOut(v), EndOut(v)) of the `adj_` permutation, by descending arc
  // id — the last-added arc first.

  /// Builds the CSR layout by a counting sort on arc tails (the tail of
  /// `e` is To(e ^ 1)) and freezes the topology. Idempotent: a no-op when
  /// already finalized; O(nodes + arcs) otherwise.
  void Finalize() {
    if (finalized_) return;
    const uint32_t n = NumNodes();
    const uint32_t num_arcs = static_cast<uint32_t>(to_.size());
    arc_base_ = num_arcs;
    first_.assign(static_cast<size_t>(n) + 1, 0);
    adj_.resize(2 * static_cast<size_t>(num_arcs));
    // first_[v] becomes the end of v's slot range; filling by ascending
    // arc id from each end backwards leaves it at the range start, with
    // the slots in descending arc id.
    for (uint32_t e = 0; e < num_arcs; ++e) ++first_[to_[e ^ 1]];
    for (uint32_t v = 1; v <= n; ++v) first_[v] += first_[v - 1];
    for (uint32_t e = 0; e < num_arcs; ++e) {
      const uint32_t slot = --first_[to_[e ^ 1]];
      adj_[slot] = to_[e];
      adj_[arc_base_ + slot] = e;
    }
    finalized_ = true;
  }

  bool finalized() const { return finalized_; }

  /// First / one-past-last adjacency slot of `node`; valid iff finalized().
  uint32_t FirstOut(uint32_t node) const { return first_[node]; }
  uint32_t EndOut(uint32_t node) const { return first_[node + 1]; }
  /// The arc id stored in adjacency slot `slot`; valid iff finalized().
  uint32_t OutArc(uint32_t slot) const { return adj_[arc_base_ + slot]; }
  /// To(OutArc(slot)), mirrored into the slot-ordered head half of the
  /// buffer so scans read the arc heads contiguously — the solvers test
  /// level/height on the head first and only touch the (scattered)
  /// capacity array for arcs that pass.
  uint32_t OutArcTo(uint32_t slot) const { return adj_[slot]; }

  /// Visits every out-arc of `node` in slot order; valid iff finalized().
  template <typename Fn>
  void ForEachOutArc(uint32_t node, Fn&& fn) const {
    DCHECK(finalized_);
    for (uint32_t k = first_[node]; k < first_[node + 1]; ++k) fn(OutArc(k));
  }

  /// Pushes `amount` of flow along `arc` (decreasing its residual and
  /// increasing the reverse residual).
  void Push(uint32_t arc, FlowCap amount) {
    cap_[arc] -= amount;
    cap_[arc ^ 1] += amount;
  }

  /// Flow currently on a *forward* arc (initial capacity minus residual).
  FlowCap FlowOn(uint32_t arc) const {
    return initial_cap_[arc] - cap_[arc];
  }

  /// Resets all residuals to the initial capacities (removes all flow).
  void ResetFlow() { cap_ = initial_cap_; }

  // --- Parametric capacity updates (see DESIGN.md §7) -------------------
  //
  // The DDS binary search re-solves the same network under monotone
  // changes of a few capacities. These mutators adjust the initial and
  // residual capacity together so the flow already routed through the arc
  // is preserved whenever it still fits.

  /// Sets `arc`'s capacity to `new_cap`, preserving the flow currently on
  /// it when possible. If the current flow exceeds `new_cap`, the arc is
  /// left saturated at `new_cap` and the excess flow is *removed from the
  /// arc*; the excess is returned and the caller must restore conservation
  /// with RouteFlow: the tail is left over-supplied by that amount (route
  /// it from the tail back to the source), and, unless the arc's head is
  /// the sink — the only case the DDS engine shrinks — the head is left
  /// under-supplied symmetrically (route it from the sink back to the
  /// head). Returns 0 when the update needed no draining.
  FlowCap SetArcCapacity(uint32_t arc, FlowCap new_cap) {
    DCHECK_LT(arc, NumArcs());
    DCHECK_GE(new_cap, 0);
    const FlowCap flow = FlowOn(arc);
    initial_cap_[arc] = new_cap;
    if (flow <= new_cap) {
      cap_[arc] = new_cap - flow;
      return 0;
    }
    const FlowCap excess = flow - new_cap;
    cap_[arc] = 0;                // saturated at the new capacity
    cap_[arc ^ 1] -= excess;      // reverse residual tracks the kept flow
    return excess;
  }

  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);

 private:
  uint32_t num_nodes_ = 0;
  std::vector<uint32_t> to_;
  std::vector<FlowCap> cap_;
  std::vector<FlowCap> initial_cap_;
  /// CSR adjacency (valid iff finalized_), one buffer bracketed by first_
  /// offsets: slot-ordered arc heads in [0, arc_base_) and the matching
  /// permutation of arc ids (grouped by tail, descending id) in
  /// [arc_base_, 2*arc_base_).
  std::vector<uint32_t> first_;
  std::vector<uint32_t> adj_;
  uint32_t arc_base_ = 0;
  bool finalized_ = false;
};

/// Pushes up to `amount` of flow from `from` to `to` along shortest
/// residual paths (BFS rounds, no level restriction) and returns the
/// amount actually pushed. Used to restore conservation after
/// SetArcCapacity drained an over-saturated arc: flow decomposition
/// guarantees a residual path from the drained arc's tail back to the
/// source with enough capacity.
FlowCap RouteFlow(FlowNetwork* net, uint32_t from, uint32_t to,
                  FlowCap amount);

}  // namespace ddsgraph

#endif  // DDSGRAPH_FLOW_FLOW_NETWORK_H_
