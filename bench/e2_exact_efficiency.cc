// E2 — exact-algorithm efficiency (the paper's headline exact figure).
//
// Runtime of the baseline FlowExact ("BS-Exact": all O(n^2) ratios, whole
// graph) versus DcExact (divide & conquer) versus CoreExact (the paper's
// algorithm) on the small datasets, plus LpExact on instances tiny enough
// for it. The expected *shape*: FlowExact >> DcExact > CoreExact by orders
// of magnitude, with LpExact slowest of all.
//
// Besides the human-readable table, the run is dumped as JSON (--json_out,
// default BENCH_e2.json) so the perf trajectory — seconds plus the
// parametric-engine counters networks_built / networks_reused /
// warm_start_augmentations — is tracked across PRs.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "dds/core_exact.h"
#include "dds/engine.h"
#include "dds/lp_exact.h"
#include "dds/solver.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

void AppendSolverJson(const char* name, const DdsSolution& solution,
                      double seconds, std::ostringstream* out) {
  *out << "      \"" << name << "\": {\"seconds\": " << seconds
       << ", \"density\": " << FormatDouble(solution.density, 12)
       << ", \"networks_built\": " << solution.stats.flow_networks_built
       << ", \"networks_reused\": " << solution.stats.flow_networks_reused
       << ", \"warm_start_augmentations\": "
       << solution.stats.warm_start_augmentations
       << ", \"binary_search_iters\": "
       << solution.stats.binary_search_iters
       << ", \"ratios_probed\": " << solution.stats.ratios_probed << "}";
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("e2_exact_efficiency",
                "E2: exact algorithms runtime comparison");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  bool* with_lp = flags.Bool("with_lp", true,
                             "include the LpExact column (tiny graphs only)");
  int64_t* lp_max_n = flags.Int64(
      "lp_max_n", 24,
      "run LpExact only when n <= this (one dense LP per ratio is "
      "intractable beyond toy sizes — the paper's motivating anecdote)");
  std::string* json_out = flags.String(
      "json_out", "BENCH_e2.json",
      "write machine-readable results here (empty string disables)");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E2", "exact algorithm efficiency");
  Table t({"dataset", "n", "m", "rho_opt", "lp-exact", "flow-exact",
           "dc-exact", "core-exact", "core-serve", "speedup(flow/core)"});
  std::ostringstream json;
  json << "{\n  \"experiment\": \"e2_exact_efficiency\",\n  "
          "\"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"datasets\": [";
  bool first_dataset = true;
  for (const Dataset& d : ExactDatasets(*quick)) {
    DdsSolution flow;
    DdsSolution dc;
    DdsSolution core;
    DdsSolution core_fresh;
    const double t_flow = TimeOnce([&] {
      flow = SolveExactDds(
          d.graph, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
    });
    const double t_dc = TimeOnce([&] {
      dc = SolveExactDds(
          d.graph, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
    });
    const double t_core =
        TimeOnce([&] { core = SolveExactDds(d.graph, ExactOptions{}); });
    // The before/after of the parametric probe engine: same trajectory,
    // rebuilt + cold-solved at every guess (an upper bound on the seed
    // cost, which built per-guess refined cores — see ExactOptions).
    ExactOptions fresh_options;
    fresh_options.incremental_probe = false;
    const double t_core_fresh =
        TimeOnce([&] { core_fresh = SolveExactDds(d.graph, fresh_options); });
    // The serving scenario: repeated identical queries on one DdsEngine.
    // The first solve warms the engine-owned workspace; the timed second
    // solve shows the amortized per-query cost a server would pay.
    DdsEngine engine(d.graph);
    DdsRequest request;  // defaults = kCoreExact
    (void)engine.Solve(request).value();
    DdsSolution core_serve;
    const double t_core_serve =
        TimeOnce([&] { core_serve = engine.Solve(request).value(); });
    std::string lp_cell = "-";
    if (*with_lp && d.graph.NumVertices() <=
                        static_cast<uint32_t>(std::min<int64_t>(
                            *lp_max_n, kLpExactMaxVertices))) {
      DdsSolution lp;
      const double t_lp = TimeOnce([&] { lp = LpExact(d.graph); });
      lp_cell = FormatSeconds(t_lp);
    }
    t.AddRow({d.name, std::to_string(d.graph.NumVertices()),
              std::to_string(d.graph.NumEdges()),
              FormatDouble(core.density, 4), lp_cell, FormatSeconds(t_flow),
              FormatSeconds(t_dc), FormatSeconds(t_core),
              FormatSeconds(t_core_serve),
              FormatDouble(t_flow / t_core, 1) + "x"});
    if (!first_dataset) json << ",";
    first_dataset = false;
    json << "\n    {\"dataset\": \"" << d.name << "\", \"family\": \""
         << d.family << "\", \"n\": " << d.graph.NumVertices()
         << ", \"m\": " << d.graph.NumEdges() << ",\n";
    AppendSolverJson("flow_exact", flow, t_flow, &json);
    json << ",\n";
    AppendSolverJson("dc_exact", dc, t_dc, &json);
    json << ",\n";
    AppendSolverJson("core_exact", core, t_core, &json);
    json << ",\n";
    AppendSolverJson("core_exact_fresh", core_fresh, t_core_fresh, &json);
    json << ",\n";
    AppendSolverJson("core_exact_serve", core_serve, t_core_serve, &json);
    json << "}";
    // Consistency audit: all exact solvers must agree, and the engine's
    // repeat solve must be bit-identical to the one-shot call.
    if (std::abs(flow.density - core.density) > 1e-5 ||
        std::abs(dc.density - core.density) > 1e-5 ||
        std::abs(core_serve.density - core.density) > 0 ||
        std::abs(core_fresh.density - core.density) > 1e-9) {
      std::fprintf(stderr, "ERROR: exact solvers disagree on %s\n",
                   d.name.c_str());
      return 1;
    }
  }
  json << "\n  ]\n}\n";
  t.PrintMarkdown(std::cout);
  if (!json_out->empty()) {
    std::ofstream out(*json_out);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", json_out->c_str());
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << *json_out << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
