#ifndef DDSGRAPH_STREAM_EDGE_STREAM_H_
#define DDSGRAPH_STREAM_EDGE_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

/// \file
/// The edge-stream vocabulary of the dynamic graph subsystem
/// (DESIGN.md §14).
///
/// An `EdgeOp` is one insert or delete of a directed edge; an `EdgeBatch`
/// is the unit in which the dynamic layer applies them (one version bump
/// per batch). The same vocabulary travels in two forms:
///
///   * programmatic — tests and the serving catalog build batches
///     directly;
///   * the compact ops string `"+u v [w], -u v, ..."` — how the wire
///     protocol's `update` verb carries a batch inside the deliberately
///     *flat* request JSON (serve/protocol.h rejects nested arrays, so
///     the batch is one string scalar with its own tiny grammar), and
///     how the write-ahead log (serve/wal.h) records it.
///
/// Semantics are fixed by the overlay (stream/dynamic_digraph.h): inserts
/// merge by summing weights on the weighted instantiation and deduplicate
/// on the unweighted one, deletes remove the edge entirely, self-loops
/// and deletes of absent edges are no-ops — exactly the normalization
/// `DigraphT::FromEdges` applies to a static edge list, which is what
/// makes overlay solves and rebuilt-static solves bit-identical.

namespace ddsgraph {

/// One edge mutation. `weight` is consumed by inserts on the weighted
/// instantiation (merge-by-sum, must be >= 1) and must stay 1 for
/// unweighted graphs; deletes ignore it.
struct EdgeOp {
  enum class Kind { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  VertexId from = 0;
  VertexId to = 0;
  int64_t weight = 1;

  static EdgeOp Insert(VertexId from, VertexId to, int64_t weight = 1) {
    return EdgeOp{Kind::kInsert, from, to, weight};
  }
  static EdgeOp Delete(VertexId from, VertexId to) {
    return EdgeOp{Kind::kDelete, from, to, 1};
  }

  friend bool operator==(const EdgeOp&, const EdgeOp&) = default;
};

/// The unit of application: one version bump of a DynamicDigraph.
using EdgeBatch = std::vector<EdgeOp>;

/// Parses the compact ops string: ops separated by ',' or ';', each op
/// `+u v [w]` (insert; w optional, default 1) or `-u v` (delete) with
/// whitespace-separated decimal fields. Vertex ids run up to
/// UINT32_MAX - 1 (so `id + 1` always fits in a VertexId). Rejects
/// malformed ops with a message naming the offending token; an empty spec is InvalidArgument
/// (an update that does nothing is almost certainly a client bug) unless
/// `allow_empty` — WAL replay (serve/wal.h) round-trips every applied
/// batch, and a batch of nothing but no-ops formats to "".
Result<EdgeBatch> ParseEdgeOps(const std::string& spec,
                               bool allow_empty = false);

/// Inverse of ParseEdgeOps: `"+1 2, +2 3 5, -1 2"`. Weights equal to 1
/// are omitted (the parser's default), so Format(Parse(s)) is canonical.
std::string FormatEdgeOps(const EdgeBatch& batch);

}  // namespace ddsgraph

#endif  // DDSGRAPH_STREAM_EDGE_STREAM_H_
