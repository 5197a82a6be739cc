// E3 — approximation-algorithm efficiency on large graphs.
//
// Runtime of the greedy peeling baseline (PeelApprox, ratio-ladder
// Charikar/BKV-style) versus the paper's CoreApprox, with CoreExact as the
// "exact is now feasible at this scale" column. Expected shape: CoreApprox
// one to two orders faster than PeelApprox on skewed (rmat/planted)
// graphs, with a smaller gap on uniform graphs (the paper's ER
// observation: flat degree distributions blunt core pruning).
//
// Since the approximation pipeline went weight-generic (DESIGN.md §10)
// the run also times the weighted instantiations on the same topologies:
// once with random geometric weights (the heavy-tailed workload the
// lazy-heap peel queue exists for) and once with all weights 1, whose
// ratio to the unweighted run is the pure weight-policy overhead on
// identical peel trajectories — since the hybrid peel queue (DESIGN.md
// §11) picks the bucket backend for unit lifts, this is weight-array
// plumbing cost, no longer the old 4-6x heap-vs-bucket gap. --json_out
// (default BENCH_e3.json) records both so the overhead is tracked across
// PRs. --threads exercises the parallel solve layer end to end.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "core/core_approx.h"
#include "dds/batch_peel_approx.h"
#include "dds/core_exact.h"
#include "dds/peel_approx.h"
#include "util/flags.h"
#include "util/memory.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ddsgraph {
namespace bench {
namespace {

int Main(int argc, const char* const* argv) {
  FlagSet flags("e3_approx_efficiency",
                "E3: approximation algorithms runtime comparison");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  bool* with_exact =
      flags.Bool("with_exact", true, "include the CoreExact column");
  double* epsilon =
      flags.Double("epsilon", 0.1, "PeelApprox ratio-ladder step");
  double* tight_epsilon = flags.Double(
      "tight_epsilon", 0.01,
      "the tight-ladder comparison column (raise for smoke runs)");
  int64_t* threads = flags.Int64(
      "threads", 1,
      "worker count for the parallel solve layer (peel ladder fan-out, "
      "batch-scan chunking, core-search rounds); results are identical at "
      "any count, only the wall clock changes");
  std::string* json_out = JsonOutFlag(&flags, "BENCH_e3.json");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E3", "approximation algorithm efficiency");
  // Two baseline configurations: the default ladder and a tight one,
  // whose extra passes show how the peeling baseline pays linearly for
  // accuracy while CoreApprox needs no accuracy knob.
  Table t({"dataset", "n", "m",
           "peel(e=" + FormatDouble(*epsilon, 2) + ")",
           "peel(e=" + FormatDouble(*tight_epsilon, 2) + ")", "batch-peel",
           "core-approx", "speedup(tight/core)", "core-exact", "rho(core)",
           "rho(peel)", "peak-rss"});
  // The weighted half: same topologies, weighted objective.
  Table wt({"dataset", "W", "peel(w)", "batch-peel(w)", "core-approx(w)",
            "rho_w(core)", "rho_w(peel)", "unit-peel overhead"});
  JsonWriter json = BenchJson("e3_approx_efficiency", kReps);
  json.Key("epsilon").Double(*epsilon, 6)
      .Key("tight_epsilon").Double(*tight_epsilon, 6)
      .Key("note")
      .String(
          "weighted = geometric AttachRandomWeights; unit_peel_overhead = "
          "all-weights-1 weighted peel time / unweighted peel time (same "
          "trajectory, bucket queue vs bucket queue: the hybrid peel queue "
          "picks the bucket backend for unit lifts, so this is pure "
          "weight-plumbing overhead)")
      .Key("datasets").BeginArray();

  ThreadPool pool(static_cast<int>(*threads));
  BatchPeelOptions batch_options;
  batch_options.threads = static_cast<int>(*threads);
  for (const Dataset& d : ApproxDatasets(*quick)) {
    PeelApproxOptions peel_options;
    peel_options.epsilon = *epsilon;
    peel_options.threads = static_cast<int>(*threads);
    PeelApproxOptions tight_options;
    tight_options.epsilon = *tight_epsilon;
    tight_options.threads = static_cast<int>(*threads);
    DdsSolution peel;
    CoreApproxResult core;
    const Timing t_peel = TimeMedian(
        kReps, [&] { peel = PeelApprox(d.graph, peel_options); });
    const Timing t_tight = TimeMedian(
        kReps, [&] { (void)PeelApprox(d.graph, tight_options); });
    const Timing t_batch = TimeMedian(
        kReps, [&] { (void)BatchPeelApprox(d.graph, batch_options); });
    const Timing t_core =
        TimeMedian(kReps, [&] { core = CoreApprox(d.graph, &pool); });
    std::optional<Timing> t_exact;
    if (*with_exact) {
      t_exact = TimeMedian(
          kReps, [&] { (void)SolveExactDds(d.graph, ExactOptions{}); });
    }
    t.AddRow({d.name, std::to_string(d.graph.NumVertices()),
              std::to_string(d.graph.NumEdges()),
              FormatSeconds(t_peel.median), FormatSeconds(t_tight.median),
              FormatSeconds(t_batch.median), FormatSeconds(t_core.median),
              FormatDouble(t_tight.median / t_core.median, 1) + "x",
              t_exact ? FormatSeconds(t_exact->median) : "-",
              FormatDouble(core.density, 4),
              FormatDouble(peel.density, 4),
              std::to_string(PeakRssKib() / 1024) + " MiB"});

    // Weighted rows: heavy-tailed weights on the same topology, plus the
    // all-weights-1 lift for the pure queue-policy overhead.
    WeightOptions weights;
    weights.dist = WeightOptions::Dist::kGeometric;
    weights.max_weight = 64;
    const WeightedDigraph wg = AttachRandomWeights(d.graph, 33, weights);
    const WeightedDigraph unit = WeightedDigraph::FromDigraph(d.graph);
    DdsSolution wpeel;
    CoreApproxResult wcore;
    const Timing t_wpeel =
        TimeMedian(kReps, [&] { wpeel = PeelApprox(wg, peel_options); });
    const Timing t_wbatch =
        TimeMedian(kReps, [&] { (void)BatchPeelApprox(wg, batch_options); });
    const Timing t_wcore =
        TimeMedian(kReps, [&] { wcore = CoreApprox(wg, &pool); });
    const Timing t_unit_peel =
        TimeMedian(kReps, [&] { (void)PeelApprox(unit, peel_options); });
    const double overhead =
        t_unit_peel.median / std::max(t_peel.median, 1e-12);
    wt.AddRow({d.name, std::to_string(wg.TotalWeight()),
               FormatSeconds(t_wpeel.median), FormatSeconds(t_wbatch.median),
               FormatSeconds(t_wcore.median), FormatDouble(wcore.density, 4),
               FormatDouble(wpeel.density, 4),
               FormatDouble(overhead, 2) + "x"});

    json.BeginObject()
        .Key("name").String(d.name)
        .Key("n").Int(d.graph.NumVertices())
        .Key("m").Int(d.graph.NumEdges())
        .Key("total_weight").Int(wg.TotalWeight());
    AddTiming(&json, "peel_seconds", t_peel);
    AddTiming(&json, "tight_peel_seconds", t_tight);
    AddTiming(&json, "batch_peel_seconds", t_batch);
    AddTiming(&json, "core_approx_seconds", t_core);
    if (t_exact) AddTiming(&json, "core_exact_seconds", *t_exact);
    AddTiming(&json, "weighted_peel_seconds", t_wpeel);
    AddTiming(&json, "weighted_batch_peel_seconds", t_wbatch);
    AddTiming(&json, "weighted_core_approx_seconds", t_wcore);
    AddTiming(&json, "unit_weighted_peel_seconds", t_unit_peel);
    json.Key("unit_peel_overhead").Double(overhead, 3)
        .Key("rho_peel").Double(peel.density, 6)
        .Key("rho_weighted_peel").Double(wpeel.density, 6)
        .EndObject();
  }
  t.PrintMarkdown(std::cout);
  std::printf("\nweighted instantiations (geometric weights, max 64):\n");
  wt.PrintMarkdown(std::cout);

  return WriteBenchJson(*json_out, &json.EndArray()) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
