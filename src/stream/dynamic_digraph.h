#ifndef DDSGRAPH_STREAM_DYNAMIC_DIGRAPH_H_
#define DDSGRAPH_STREAM_DYNAMIC_DIGRAPH_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "stream/edge_stream.h"
#include "util/logging.h"

/// \file
/// Delta overlay over the immutable CSR graph (DESIGN.md §14).
///
/// `DynamicDigraphT<WeightPolicy>` represents the current logical graph as
/// a frozen base `DigraphT` plus a hash-map delta of edges whose weight
/// differs from the base (weight 0 = tombstone). Reads merge the two: the
/// base out-adjacency span and the per-vertex sorted list of touched
/// out-neighbors are co-iterated in ascending order, so `ForEachOutEdge`
/// enumerates exactly the arcs `FromEdges` would materialize for the same
/// logical edge set, in the same order — the property the
/// overlay-vs-rebuild bit-identity tests pin down.
///
/// Op semantics match static construction: self-loops are dropped;
/// unweighted inserts are idempotent; weighted inserts merge by summing;
/// deletes remove the arc entirely; no-ops (deleting an absent edge,
/// re-inserting an unweighted edge) are not counted.
///
/// Compaction folds the delta back into a fresh CSR once it grows past
/// `CompactionPolicy` (a fraction of the base size with an absolute
/// floor, so small graphs don't thrash) or on demand via `Snapshot()`.
/// Compaction changes the *representation* only — `version()` counts
/// logical changes (applied batches), `compactions()` counts rebuilds, and
/// consumers holding pointers into the base CSR (the serving catalog's
/// `DdsEngine`) watch the latter to know when to rebind.
///
/// Not thread-safe; callers serialize externally (the catalog uses its
/// per-entry mutex).

namespace ddsgraph {

/// When the delta is folded back into the CSR automatically.
struct CompactionPolicy {
  /// Compact when delta entries exceed this fraction of base edges...
  double max_delta_fraction = 0.25;
  /// ...but never below this many entries (small graphs would thrash).
  int64_t min_delta_entries = 1024;
  /// Disable to compact only on demand (Snapshot / Compact).
  bool auto_compact = true;
};

template <typename WeightPolicy>
class DynamicDigraphT {
 public:
  using Graph = DigraphT<WeightPolicy>;
  static constexpr bool kWeighted = Graph::kWeighted;

  DynamicDigraphT() = default;
  explicit DynamicDigraphT(Graph base, CompactionPolicy policy = {})
      : base_(std::move(base)),
        policy_(policy),
        num_vertices_(base_.NumVertices()),
        num_edges_(base_.NumEdges()),
        total_weight_(base_.TotalWeight()) {}

  /// Applies a batch of ops and bumps the version once. Vertex ids beyond
  /// the current vertex count grow the graph (ids come from ParseEdgeOps
  /// or tests, so `id + 1` fits in a VertexId). Returns the number of
  /// applied (non-no-op) ops. Runs the compaction policy after the batch.
  int64_t ApplyBatch(const EdgeBatch& batch) {
    int64_t applied = 0;
    for (const EdgeOp& op : batch) {
      if (op.from == op.to) continue;  // self-loops never materialize
      GrowTo(std::max(op.from, op.to) + 1);
      const int64_t old_weight = EdgeWeight(op.from, op.to);
      int64_t new_weight = old_weight;
      if (op.kind == EdgeOp::Kind::kInsert) {
        if (op.weight <= 0) continue;  // FromEdges drops these too
        new_weight = kWeighted ? old_weight + op.weight : 1;
      } else {
        new_weight = 0;
      }
      if (new_weight == old_weight) continue;
      StoreWeight(op.from, op.to, new_weight);
      num_edges_ += (new_weight > 0 ? 1 : 0) - (old_weight > 0 ? 1 : 0);
      total_weight_ += new_weight - old_weight;
      ++applied;
    }
    ++version_;
    if (policy_.auto_compact && NeedsCompaction()) Compact();
    return applied;
  }

  /// Current logical weight of arc u -> v (0 = absent).
  int64_t EdgeWeight(VertexId u, VertexId v) const {
    const auto it = delta_.find(Key(u, v));
    if (it != delta_.end()) return it->second;
    return BaseWeight(u, v);
  }

  uint32_t NumVertices() const { return num_vertices_; }
  int64_t NumEdges() const { return num_edges_; }
  int64_t TotalWeight() const { return total_weight_; }

  /// Enumerates the out-arcs of u as fn(v, weight), v strictly ascending —
  /// the merge of the base span with the touched-neighbor list, skipping
  /// tombstones. The enumeration order equals the CSR order a compaction
  /// would produce.
  ///
  /// For a touched neighbor the delta map is authoritative (a missing
  /// entry means the arc reverted to its base state); untouched neighbors
  /// come straight from the base span.
  template <typename Fn>
  void ForEachOutEdge(VertexId u, Fn&& fn) const {
    const std::span<const VertexId> base_nbrs = BaseOutSpan(u);
    const auto t_it = touched_out_.find(u);
    if (t_it == touched_out_.end()) {
      // Fast path: no touched arcs at this vertex — the base span is the
      // truth, weights included.
      for (size_t k = 0; k < base_nbrs.size(); ++k) {
        fn(base_nbrs[k], base_.OutWeight(u, k));
      }
      return;
    }
    const std::vector<VertexId>& touched_nbrs = t_it->second;
    size_t bi = 0;
    size_t ti = 0;
    while (bi < base_nbrs.size() || ti < touched_nbrs.size()) {
      const bool take_touched =
          bi >= base_nbrs.size() ||
          (ti < touched_nbrs.size() && touched_nbrs[ti] <= base_nbrs[bi]);
      if (take_touched) {
        const VertexId v = touched_nbrs[ti];
        if (bi < base_nbrs.size() && base_nbrs[bi] == v) ++bi;
        ++ti;
        const int64_t w = EdgeWeight(u, v);
        if (w > 0) fn(v, w);
      } else {
        fn(base_nbrs[bi], base_.OutWeight(u, bi));
        ++bi;
      }
    }
  }

  /// True when the delta has outgrown the policy threshold.
  bool NeedsCompaction() const {
    const int64_t threshold = std::max<int64_t>(
        policy_.min_delta_entries,
        static_cast<int64_t>(policy_.max_delta_fraction *
                             static_cast<double>(base_.NumEdges())));
    return static_cast<int64_t>(delta_.size()) >= threshold;
  }

  /// Folds the delta into a fresh CSR. Logical content is unchanged
  /// (checked against the maintained counters); `compactions()` bumps,
  /// `version()` does not.
  void Compact() {
    std::vector<typename Graph::EdgeType> edges;
    edges.reserve(static_cast<size_t>(num_edges_));
    for (VertexId u = 0; u < num_vertices_; ++u) {
      ForEachOutEdge(u, [&](VertexId v, int64_t w) {
        if constexpr (kWeighted) {
          edges.push_back(WeightedEdge{u, v, w});
        } else {
          (void)w;
          edges.emplace_back(u, v);
        }
      });
    }
    base_ = Graph::FromEdges(num_vertices_, std::move(edges));
    delta_.clear();
    touched_out_.clear();
    CHECK_EQ(num_edges_, base_.NumEdges())
        << "overlay edge count diverged from compacted CSR";
    CHECK_EQ(total_weight_, base_.TotalWeight())
        << "overlay total weight diverged from compacted CSR";
    ++compactions_;
  }

  /// The current logical graph as an immutable CSR; compacts first iff
  /// the delta is non-empty (or vertices grew), so a clean overlay stays
  /// zero-cost. The reference is valid until the next ApplyBatch.
  const Graph& Snapshot() {
    if (!delta_.empty() || num_vertices_ != base_.NumVertices()) Compact();
    return base_;
  }

  /// The base CSR the overlay currently sits on (contents change on
  /// compaction — rebind anything holding this reference when
  /// `compactions()` moves).
  const Graph& base() const { return base_; }

  /// Logical version: number of applied batches since construction.
  int64_t version() const { return version_; }
  /// Number of delta entries currently buffered.
  int64_t delta_entries() const {
    return static_cast<int64_t>(delta_.size());
  }
  /// Number of CSR rebuilds so far.
  int64_t compactions() const { return compactions_; }
  const CompactionPolicy& policy() const { return policy_; }

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  void GrowTo(uint32_t n) { num_vertices_ = std::max(num_vertices_, n); }

  /// Vertices past the base CSR exist only in the delta; every base
  /// accessor funnels through these guards.
  bool InBase(VertexId u) const { return u < base_.NumVertices(); }
  std::span<const VertexId> BaseOutSpan(VertexId u) const {
    return InBase(u) ? base_.OutNeighbors(u)
                     : std::span<const VertexId>{};
  }

  int64_t BaseWeight(VertexId u, VertexId v) const {
    if (!InBase(u) || !InBase(v)) return 0;
    const auto nbrs = base_.OutNeighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v) return 0;
    return base_.OutWeight(u, static_cast<size_t>(it - nbrs.begin()));
  }

  /// Records the new logical weight and keeps the touched list current.
  /// The entry is *erased* when the new weight equals the base weight
  /// (re-insert after delete restores the base arc exactly); the touched
  /// list keeps the now-stale neighbor, which the merged iteration
  /// resolves by falling back to the base weight.
  void StoreWeight(VertexId u, VertexId v, int64_t new_weight) {
    const uint64_t key = Key(u, v);
    if (new_weight == BaseWeight(u, v)) {
      delta_.erase(key);
    } else {
      delta_[key] = new_weight;
    }
    InsertSorted(&touched_out_[u], v);
  }

  static void InsertSorted(std::vector<VertexId>* list, VertexId v) {
    const auto it = std::lower_bound(list->begin(), list->end(), v);
    if (it == list->end() || *it != v) list->insert(it, v);
  }

  Graph base_;
  CompactionPolicy policy_;
  uint32_t num_vertices_ = 0;

  /// (u << 32 | v) -> current logical weight; holds exactly the arcs
  /// whose logical weight differs from the base (0 = tombstoned base
  /// arc).
  std::unordered_map<uint64_t, int64_t> delta_;
  /// Per-vertex sorted out-neighbor lists of arcs ever touched since the
  /// last compaction (may contain reverted entries; see StoreWeight).
  std::unordered_map<VertexId, std::vector<VertexId>> touched_out_;

  int64_t num_edges_ = 0;
  int64_t total_weight_ = 0;
  int64_t version_ = 0;
  int64_t compactions_ = 0;
};

using DynamicDigraph = DynamicDigraphT<UnitWeight>;
using DynamicWeightedDigraph = DynamicDigraphT<Int64Weight>;

extern template class DynamicDigraphT<UnitWeight>;
extern template class DynamicDigraphT<Int64Weight>;

}  // namespace ddsgraph

#endif  // DDSGRAPH_STREAM_DYNAMIC_DIGRAPH_H_
