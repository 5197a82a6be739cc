#ifndef DDSGRAPH_BENCH_BENCH_COMMON_H_
#define DDSGRAPH_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/generators.h"

/// \file
/// Shared harness for the experiment binaries (EXPERIMENTS.md).
///
/// The paper evaluates on public SNAP/WebGraph datasets; offline, the
/// registry below generates synthetic stand-ins with matching shape
/// classes (DESIGN.md §6). Every dataset is deterministic (fixed seed), so
/// all experiment outputs are reproducible run to run. Real datasets can
/// be substituted with --snap_file on the binaries that accept it.

namespace ddsgraph {
namespace bench {

struct Dataset {
  std::string name;
  std::string family;  ///< uniform | rmat | planted | biclique
  Digraph graph;
  /// Ground-truth planted pair when family == "planted" (else empty).
  std::vector<VertexId> planted_s;
  std::vector<VertexId> planted_t;
};

/// Small graphs on which the baseline exact algorithms (FlowExact, and on
/// the smallest one LpExact) terminate in seconds. Used by E2/E6/E7/E8.
std::vector<Dataset> ExactDatasets(bool quick);

/// Large graphs for the approximation and core-exact comparisons
/// (E3/E4/E5). `quick` drops the largest instances.
std::vector<Dataset> ApproxDatasets(bool quick);

/// The single largest graph (for the E5 scalability sweep); `quick`
/// substitutes a smaller one for the smoke run.
Dataset ScalabilityDataset(bool quick);

/// Keeps the first `fraction` (0 < fraction <= 1) of the edge list —
/// the standard scalability protocol of the paper (prefix subsampling).
Digraph EdgeFraction(const Digraph& g, double fraction);

/// Wall-times `fn` once and returns seconds (the solvers are long-running
/// and deterministic; single-shot timing is the right protocol).
double TimeOnce(const std::function<void()>& fn);

/// Runs `fn` `reps` times and returns the median wall time in seconds,
/// for solves short enough (a few ms) that one timing is mostly noise.
double TimeMedian(int reps, const std::function<void()>& fn);

/// Prints the experiment banner (id, title, substitution note).
void PrintBanner(const std::string& experiment_id, const std::string& title);

}  // namespace bench
}  // namespace ddsgraph

#endif  // DDSGRAPH_BENCH_BENCH_COMMON_H_
