#ifndef DDSGRAPH_BENCH_BENCH_COMMON_H_
#define DDSGRAPH_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dds/result.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "util/flags.h"
#include "util/json_writer.h"

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

/// Repetitions behind every timed column, unless a bench's --reps sets
/// them.
inline constexpr int kReps = 5;

/// Median and quartiles of one timed column, in seconds.
struct Timing {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

/// The Timing of a column's per-rep wall times.
Timing SummarizeTimes(const std::vector<double>& seconds);

/// Runs `fn` `reps` times and returns the Timing of its wall times — the
/// one timing rule of every E-bench.
Timing TimeMedian(int reps, const std::function<void()>& fn);

/// Registers --json_out: where the result file goes (default
/// `default_path`; an empty string disables it).
std::string* JsonOutFlag(FlagSet* flags, const std::string& default_path);

/// Starts a bench result file: the top-level object with "experiment"
/// and the "reps" behind every timing. Each member of the top object and
/// of its arrays (one dataset row each) gets its own line.
/// WriteBenchJson closes it.
JsonWriter BenchJson(const std::string& experiment, int reps);

/// Writes `"key": {"median": .., "q1": .., "q3": ..}` (seconds).
void AddTiming(JsonWriter* json, std::string_view key, const Timing& t);

/// Writes `"name": {"seconds": <AddTiming>, "density": ..}` plus the
/// exact engine's counters (networks built and reused, warm-start
/// augmentations, binary-search iterations, ratios probed).
void AddSolverJson(JsonWriter* json, std::string_view name,
                   const DdsSolution& solution, const Timing& time);

/// Closes the top-level object that BenchJson opened with the
/// "provenance" block: hardware_concurrency, cpu_model, compiler,
/// build_type, the git_revision captured at configure time, and
/// host_steal_frac, the share of all host CPU ticks in /proc/stat stolen
/// by the hypervisor while the bench ran (~0 on a quiet host). Then
/// writes it plus a newline to `path` and prints "wrote <path>"; an empty
/// path writes nothing. Returns false, after printing an error, when the
/// file cannot be written.
bool WriteBenchJson(const std::string& path, JsonWriter* json);

/// Prints the experiment banner (id, title, substitution note).
void PrintBanner(const std::string& experiment_id, const std::string& title);

}  // namespace bench
}  // namespace ddsgraph

#endif  // DDSGRAPH_BENCH_BENCH_COMMON_H_
