// dds_tool: command-line densest-subgraph runner for real data.
//
// Reads a SNAP-format edge list (or generates a synthetic graph), runs the
// chosen algorithm through the DdsEngine facade, and prints the solution;
// optionally writes the found (S,T) vertex lists to a file. With
// --weighted the input is read as a `u v [w]` weighted edge list (or the
// generated graph is lifted to unit weights) and the solve maximizes
// w(E(S,T))/sqrt(|S||T|) — every registered algorithm is weight-generic,
// approximations included, so any --algo value combines with --weighted;
// with --json the solution and its solver statistics are printed as one
// machine-readable JSON object. --deadline_s turns an exact run into an
// anytime one: on expiry the tool reports the incumbent with its
// certified [lower, upper] density bracket. --threads N runs the solve on
// the shared-memory parallel layer (peel-ladder fan-out, work-sharing
// exact search); deadlines and --threads compose.
//
//   ./build/examples/dds_tool --snap_file wiki-Vote.txt --algo core-exact
//   ./build/examples/dds_tool --generate rmat --scale 14 --edges 200000
//   ./build/examples/dds_tool --snap_file reviews.wtxt --weighted --json
//   ./build/examples/dds_tool --snap_file reviews.wtxt --weighted
//       --algo peel-approx          # weighted greedy peel, certified bound
//   ./build/examples/dds_tool --generate rmat --weighted
//       --algo batch-peel-approx    # weighted streaming-style batch peel
//   ./build/examples/dds_tool --snap_file big.txt --deadline_s 5

#include <cstdio>
#include <fstream>

#include "ddsgraph.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ddsgraph;
  FlagSet flags("dds_tool", "densest directed subgraph CLI");
  std::string* snap_file =
      flags.String("snap_file", "", "SNAP edge list to load");
  std::string* generate = flags.String(
      "generate", "rmat", "synthetic family when no file: rmat | uniform");
  int64_t* scale = flags.Int64("scale", 12, "rmat scale (n = 2^scale)");
  int64_t* edges = flags.Int64("edges", 100000, "synthetic edge count");
  int64_t* seed = flags.Int64("seed", 1, "synthetic generator seed");
  // The one source of truth for this help string is the registry.
  std::string* algo_name =
      flags.String("algo", "core-exact", AlgorithmNamesHelp());
  bool* weighted = flags.Bool(
      "weighted", false,
      "treat the input as a `u v [w]` weighted edge list (generated "
      "graphs are lifted to unit weights) and maximize the weighted "
      "density; combines with any --algo");
  bool* json = flags.Bool("json", false,
                          "print the solution as one JSON object");
  double* deadline_s = flags.Double(
      "deadline_s", 0,
      "wall-clock budget in seconds; 0 = none. An expired flow-based "
      "exact solve (flow/dc/core-exact) returns the incumbent with "
      "certified [lower, upper] bounds; naive/lp-exact run to completion");
  bool* fresh_probes = flags.Bool(
      "fresh_probes", false,
      "disable the parametric probe engine (rebuild + cold-solve the flow "
      "network at every guess) — the ablation baseline; applies to the "
      "exact solvers, weighted or not, and never changes the answer");
  // The one source of truth for this help string is the flow registry.
  std::string* flow_engine_name = flags.String(
      "flow_engine", "auto",
      "max-flow kernel for the exact min-cut probes (" +
          FlowEngineNamesHelp() +
          "); auto = warm-started Dinic on incremental re-solves, "
          "push-relabel on large fresh builds, Dinic otherwise. Never "
          "changes the answer");
  int64_t* threads = flags.Int64(
      "threads", 1,
      "shared-memory workers for the solve: fans the peel ladder, the "
      "skyline walk and the exact ratio-space search across a thread "
      "pool. Approximations return identical solutions at any count; the "
      "exact solvers return the same optimum with schedule-dependent "
      "statistics. 1 = sequential");
  std::string* out_file =
      flags.String("out_file", "", "write S/T vertex lists here");
  flags.ParseOrDie(argc, argv);

  // Load or generate the graph (both flavors share the label mapping).
  Digraph graph;
  WeightedDigraph weighted_graph;
  std::vector<uint64_t> labels;
  if (!snap_file->empty()) {
    // One shared loader with the serving catalog (graph/io): failures come
    // back as a Status whose message always names the offending file.
    auto loaded = LoadEdgeListAuto(*snap_file, *weighted);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load graph: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (*weighted) {
      weighted_graph = std::move(loaded.value().weighted_graph);
    } else {
      graph = std::move(loaded.value().graph);
    }
    labels = std::move(loaded.value().labels);
    if (!*json) std::printf("loaded %s\n", snap_file->c_str());
  } else {
    if (*generate == "rmat") {
      graph = RmatDigraph(static_cast<uint32_t>(*scale), *edges,
                          static_cast<uint64_t>(*seed));
    } else if (*generate == "uniform") {
      graph = UniformDigraph(1u << static_cast<uint32_t>(*scale), *edges,
                             static_cast<uint64_t>(*seed));
    } else {
      std::fprintf(stderr, "unknown --generate family '%s'\n",
                   generate->c_str());
      return 1;
    }
    if (!*json) {
      std::printf("generated %s n=%u m=%lld\n", generate->c_str(),
                  graph.NumVertices(),
                  static_cast<long long>(graph.NumEdges()));
    }
    if (*weighted) weighted_graph = WeightedDigraph::FromDigraph(graph);
  }

  if (!*json && !*weighted) {
    const DegreeStats stats = ComputeDegreeStats(graph);
    std::printf("graph: %s\n", stats.ToString().c_str());
  }

  const auto algorithm = ParseAlgorithmName(*algo_name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown --algo '%s'; known: %s\n",
                 algo_name->c_str(), AlgorithmNamesHelp().c_str());
    return 1;
  }

  FlowEngine flow_engine = FlowEngine::kAuto;
  if (!ParseFlowEngineName(*flow_engine_name, &flow_engine)) {
    std::fprintf(stderr, "unknown --flow_engine '%s'; known: %s\n",
                 flow_engine_name->c_str(), FlowEngineNamesHelp().c_str());
    return 1;
  }

  DdsRequest request;
  request.algorithm = *algorithm;
  request.exact.incremental_probe = !*fresh_probes;
  request.exact.flow_engine = flow_engine;
  request.threads = static_cast<int>(*threads);
  if (*deadline_s > 0) request.deadline_seconds = *deadline_s;

  DdsEngine engine = *weighted ? DdsEngine(weighted_graph)
                               : DdsEngine(graph);
  const Result<DdsSolution> result = engine.Solve(request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const DdsSolution& solution = result.value();
  if (*json) {
    // `labels` maps dense ids back to the input file's ids, so the JSON
    // names the same vertices as --out_file does.
    std::printf("%s\n", SolutionJson(solution, labels).c_str());
  } else {
    std::printf("%s: %s\n", algo_name->c_str(),
                SolutionSummary(solution).c_str());
  }

  if (!out_file->empty()) {
    std::ofstream out(*out_file);
    auto emit = [&](const char* side, const std::vector<VertexId>& vs) {
      out << side;
      for (VertexId v : vs) {
        out << " " << (labels.empty() ? v : labels[v]);
      }
      out << "\n";
    };
    emit("S", solution.pair.s);
    emit("T", solution.pair.t);
    if (!*json) std::printf("wrote %s\n", out_file->c_str());
  }
  return 0;
}
