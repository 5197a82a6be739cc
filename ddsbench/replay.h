#ifndef DDSBENCH_REPLAY_H_
#define DDSBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/io.h"
#include "stream/edge_stream.h"
#include "harness.h"

/// \file
/// Layer replays: direct calls into one layer's public functions on a
/// workload's own inputs, run after the traced script. Every workload
/// reports every per-layer metric; where its script never reaches a layer
/// (offline_batch has no server, only serve_live updates), a replay of the
/// workload's inputs through that layer measures it. README.md lists which
/// metric comes from the script and which from a replay, per workload.

namespace ddsbench {

using Graphs = std::vector<std::unique_ptr<ddsgraph::LoadedAnyGraph>>;

/// Totals of one round of solves of a workload's distinct requests.
struct SolveRound {
  double exact_wall_s = 0;  ///< the exact solves, back to back
  double exact_cpu_s = 0;   ///< process CPU over the same window
  double exact_ms = 0;      ///< summed Solve wall of the exact solves
  double approx_ms = 0;     ///< summed Solve wall of the approximations
  ddsgraph::SolverStats stats;  ///< exact solves: sums, max of max_network_nodes
};

void AddStats(const ddsgraph::SolverStats& s, ddsgraph::SolverStats* total);

/// Solves `request` on `engine` and returns the solution; `*ms` receives
/// the Solve wall. When traced, an exact solve also records its progress
/// callback gaps: start -> first callback as `dds.pre_flow` (warm start and
/// candidate-core location) and callback -> callback as `flow.cut` (one
/// min-cut per binary-search guess).
ddsgraph::DdsSolution TimedSolve(ddsgraph::DdsEngine* engine,
                                 ddsgraph::DdsRequest request, Tracer* tracer,
                                 int64_t parent, double* ms);

/// dds.exact_ms, dds.approx_ms, dds.pre_flow_ms, dds.parallelism and the
/// SolverStats-based dds.* and flow.* metrics, each a median over rounds;
/// flow.cut_ms is the median of every recorded `flow.cut` span.
void SolverLayers(const std::vector<SolveRound>& rounds, const Tracer& tracer,
                  Metrics* layers);

/// core.approx_ms (CoreApprox over every graph, median of three rounds)
/// and core.skyline_points (CoreSkyline sizes summed), on a pool of
/// `threads`.
void CoreReplay(const Graphs& graphs, int threads, Tracer* tracer,
                Metrics* layers);

/// `count` batches of `ops` edge ops on `g`: half inserts of absent arcs,
/// half deletes of present ones, tracked on a mirror so no op is a no-op.
std::vector<ddsgraph::EdgeBatch> UpdateBatches(const ddsgraph::Digraph& g,
                                               size_t count, int ops,
                                               uint64_t seed);

/// The batches through each write-path layer on its own: the overlay
/// (DynamicDigraph::ApplyBatch, then Snapshot), a scratch WriteAheadLog
/// with fsync = always, and a durable scratch CatalogEntry. Sets stream.*,
/// wal.* and catalog.apply_ms. Scratch files go under `dir`.
void UpdateReplay(const std::string& name, const ddsgraph::Digraph& g,
                  const std::vector<ddsgraph::EdgeBatch>& batches,
                  const std::string& dir, Tracer* tracer, Metrics* layers,
                  Outcome* outcome);

/// wire.parse_us: ParseWireRequest per frame over `frames`; wire.encode_us:
/// SolutionJson per solution over `solutions`. Medians of five rounds.
void WireReplay(const std::vector<std::string>& frames,
                const std::vector<ddsgraph::DdsSolution>& solutions,
                Tracer* tracer, Metrics* layers);

/// One graph a served replay loads.
struct ServedGraph {
  std::string name;
  std::string path;
  bool weighted = false;
};

/// Loads `graphs` into a fresh catalog behind an in-process DdsServer at
/// the daemon defaults, sends every frame `rounds` times over one closed-
/// loop connection (the first round misses, later rounds hit the cache),
/// and sets the serving layers' metrics from the responses and counters:
/// dds.engine_ms, catalog.*, scheduler.*, cache.*, wire.ms and
/// wire.response_bytes. Defined in serve.cc.
void ServedReplay(const std::vector<ServedGraph>& graphs,
                  const std::vector<std::string>& frames, int rounds,
                  Tracer* tracer, Metrics* layers, Outcome* outcome);

}  // namespace ddsbench

#endif  // DDSBENCH_REPLAY_H_
