#ifndef DDSGRAPH_DDS_SOLVER_H_
#define DDSGRAPH_DDS_SOLVER_H_

#include <optional>
#include <string>

#include "dds/core_exact.h"
#include "dds/result.h"
#include "graph/digraph.h"

/// \file
/// The DDS algorithm enum and its name/preset helpers.
///
/// The names and exactness flags below are derived from the algorithm
/// registry in dds/engine.h; DdsEngine is the one entry point that runs an
/// algorithm by enum (options, weighted graphs, deadlines, cancellation).

namespace ddsgraph {

enum class DdsAlgorithm {
  kNaiveExact,  ///< exhaustive (tests / tiny graphs only)
  kLpExact,     ///< Charikar LP per ratio (baseline)
  kFlowExact,   ///< flow binary search over all ratios (baseline)
  kDcExact,     ///< divide-and-conquer over ratios
  kCoreExact,   ///< the paper's exact algorithm
  kPeelApprox,  ///< greedy peeling 2(1+eps)-approximation (baseline)
  kBatchPeelApprox,  ///< streaming-style batch peeling (baseline)
  kCoreApprox,  ///< the paper's core-based 2-approximation
};

/// Canonical lower-case name ("core-exact", "peel-approx", ...).
const char* AlgorithmName(DdsAlgorithm algorithm);

/// Inverse of AlgorithmName; nullopt for unknown names.
std::optional<DdsAlgorithm> ParseAlgorithmName(const std::string& name);

/// True for the algorithms that return the optimum (not an approximation).
bool IsExactAlgorithm(DdsAlgorithm algorithm);

/// The ExactOptions an exact algorithm actually runs with, given the
/// caller's `base`: kCoreExact keeps base verbatim; kDcExact and
/// kFlowExact force the ablation flags that define them (divide &
/// conquer on/off, no core pruning, no per-guess refinement, no warm
/// start) while preserving the engine knobs (incremental_probe,
/// record_network_sizes, max_exhaustive_n). Identity for the other
/// algorithms. The single source of preset truth for both DdsEngine and
/// the FlowExact / DcExact free functions.
ExactOptions ExactPresetFor(DdsAlgorithm algorithm, ExactOptions base);

/// One-line human-readable summary of a solution.
std::string SolutionSummary(const DdsSolution& solution);

/// Machine-readable one-line JSON object for a solution: density, edges,
/// the S/T vertex lists, certified bounds, the interrupted flag and the
/// SolverStats counters (network_sizes traces omitted). Non-empty
/// `labels` translate the dense internal vertex ids back to the input
/// file's ids (the LoadedGraph::labels contract), matching what the
/// --out_file path of dds_tool writes.
std::string SolutionJson(const DdsSolution& solution,
                         const std::vector<uint64_t>& labels = {});

}  // namespace ddsgraph

#endif  // DDSGRAPH_DDS_SOLVER_H_
