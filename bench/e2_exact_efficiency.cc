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
// warm_start_augmentations — is tracked across changes. Every time is the
// median of kReps runs, recorded with its quartiles.

#include <cstdio>
#include <iostream>

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
  std::string* json_out = JsonOutFlag(&flags, "BENCH_e2.json");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E2", "exact algorithm efficiency");
  Table t({"dataset", "n", "m", "rho_opt", "lp-exact", "flow-exact",
           "dc-exact", "core-exact", "core-serve", "speedup(flow/core)"});
  JsonWriter json = BenchJson("e2_exact_efficiency", kReps);
  json.Key("datasets").BeginArray();
  for (const Dataset& d : ExactDatasets(*quick)) {
    DdsSolution flow;
    DdsSolution dc;
    DdsSolution core;
    DdsSolution core_fresh;
    const Timing t_flow = TimeMedian(kReps, [&] {
      flow = SolveExactDds(
          d.graph, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
    });
    const Timing t_dc = TimeMedian(kReps, [&] {
      dc = SolveExactDds(
          d.graph, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
    });
    const Timing t_core = TimeMedian(
        kReps, [&] { core = SolveExactDds(d.graph, ExactOptions{}); });
    // The before/after of the parametric probe engine: same trajectory,
    // rebuilt + cold-solved at every guess (an upper bound on the seed
    // cost, which built per-guess refined cores — see ExactOptions).
    ExactOptions fresh_options;
    fresh_options.incremental_probe = false;
    const Timing t_core_fresh = TimeMedian(
        kReps, [&] { core_fresh = SolveExactDds(d.graph, fresh_options); });
    // The serving scenario: repeated identical queries on one DdsEngine.
    // The first solve warms the engine-owned workspace; the timed repeats
    // show the amortized per-query cost a server would pay.
    DdsEngine engine(d.graph);
    DdsRequest request;  // defaults = kCoreExact
    (void)engine.Solve(request).value();
    DdsSolution core_serve;
    const Timing t_core_serve = TimeMedian(
        kReps, [&] { core_serve = engine.Solve(request).value(); });
    std::string lp_cell = "-";
    if (*with_lp && d.graph.NumVertices() <=
                        static_cast<uint32_t>(std::min<int64_t>(
                            *lp_max_n, kLpExactMaxVertices))) {
      DdsSolution lp;
      lp_cell = FormatSeconds(
          TimeMedian(kReps, [&] { lp = LpExact(d.graph); }).median);
    }
    t.AddRow({d.name, std::to_string(d.graph.NumVertices()),
              std::to_string(d.graph.NumEdges()),
              FormatDouble(core.density, 4), lp_cell,
              FormatSeconds(t_flow.median), FormatSeconds(t_dc.median),
              FormatSeconds(t_core.median), FormatSeconds(t_core_serve.median),
              FormatDouble(t_flow.median / t_core.median, 1) + "x"});
    json.BeginObject()
        .Key("dataset").String(d.name)
        .Key("family").String(d.family)
        .Key("n").Int(d.graph.NumVertices())
        .Key("m").Int(d.graph.NumEdges());
    AddSolverJson(&json, "flow_exact", flow, t_flow);
    AddSolverJson(&json, "dc_exact", dc, t_dc);
    AddSolverJson(&json, "core_exact", core, t_core);
    AddSolverJson(&json, "core_exact_fresh", core_fresh, t_core_fresh);
    AddSolverJson(&json, "core_exact_serve", core_serve, t_core_serve);
    json.EndObject();
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
  t.PrintMarkdown(std::cout);
  return WriteBenchJson(*json_out, &json.EndArray()) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
