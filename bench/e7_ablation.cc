// E7 — pruning ablation (the paper's "effect of pruning criteria" figure).
//
// The exact engine's optimizations are toggled one at a time, forming a
// ladder from the baseline to the full CoreExact:
//   baseline    : enumerate all ratios, whole-graph flows, rebuild the
//                 network at every binary-search guess
//   +parametric : reuse + reparameterize the network across guesses and
//                 warm-start the flow (DESIGN.md §7)
//   +dc         : divide & conquer over ratio intervals
//   +cores      : locate candidates in [x,y]-cores per interval
//   +refine     : re-peel cores as the binary search lower bound rises
//   +warm       : seed the incumbent with CoreApprox (full CoreExact)
// Every rung reports runtime and network builds vs parametric reuses;
// densities are cross-checked for equality (the flags are pure
// optimizations).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "dds/core_exact.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

struct Rung {
  const char* name;
  ExactOptions options;
};

std::vector<Rung> Ladder() {
  std::vector<Rung> rungs;
  ExactOptions baseline;
  baseline.divide_and_conquer = false;
  baseline.core_pruning = false;
  baseline.refine_cores_in_probe = false;
  baseline.approx_warm_start = false;
  baseline.incremental_probe = false;
  rungs.push_back({"baseline", baseline});
  ExactOptions parametric = baseline;
  parametric.incremental_probe = true;
  rungs.push_back({"+parametric", parametric});
  ExactOptions dc = parametric;
  dc.divide_and_conquer = true;
  rungs.push_back({"+dc", dc});
  ExactOptions cores = dc;
  cores.core_pruning = true;
  rungs.push_back({"+cores", cores});
  ExactOptions refine = cores;
  refine.refine_cores_in_probe = true;
  rungs.push_back({"+refine", refine});
  ExactOptions warm = refine;
  warm.approx_warm_start = true;
  rungs.push_back({"+warm (CoreExact)", warm});
  return rungs;
}

// Runs the whole ladder on one graph (either weight policy — the engine
// is the same template either way) and prints the markdown table.
// Returns false when a rung changed the answer.
template <typename G>
bool RunLadder(const G& g) {
  Table t({"variant", "time", "ratios", "built", "reused",
           "max-net-nodes", "rho"});
  double reference = -1;
  for (const Rung& rung : Ladder()) {
    DdsSolution sol;
    const double secs =
        TimeMedian(kReps, [&] { sol = SolveExactDds(g, rung.options); })
            .median;
    if (reference < 0) reference = sol.density;
    if (std::abs(sol.density - reference) > 1e-5) {
      std::fprintf(stderr, "ERROR: ablation rung %s changed the answer\n",
                   rung.name);
      return false;
    }
    t.AddRow({rung.name, FormatSeconds(secs),
              std::to_string(sol.stats.ratios_probed),
              std::to_string(sol.stats.flow_networks_built),
              std::to_string(sol.stats.flow_networks_reused),
              std::to_string(sol.stats.max_network_nodes),
              FormatDouble(sol.density, 4)});
  }
  t.PrintMarkdown(std::cout);
  std::printf("\n");
  return true;
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("e7_ablation", "E7: exact-engine optimization ladder");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  bool* weighted = flags.Bool(
      "weighted", true,
      "also run each ladder on a weight-lifted copy of the dataset");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E7", "pruning ablation");
  for (const Dataset& d : ExactDatasets(*quick)) {
    std::printf("### %s (n=%u, m=%lld)\n", d.name.c_str(),
                d.graph.NumVertices(),
                static_cast<long long>(d.graph.NumEdges()));
    if (!RunLadder(d.graph)) return 1;
    if (*weighted) {
      // The weighted rungs: same topology, geometric weights, same
      // ladder — every flag applies to the weighted instantiation since
      // the engines merged.
      WeightOptions weight_options;
      weight_options.dist = WeightOptions::Dist::kGeometric;
      weight_options.max_weight = 12;
      const WeightedDigraph wg =
          AttachRandomWeights(d.graph, /*seed=*/11, weight_options);
      std::printf("### %s (weighted, W=%lld)\n", d.name.c_str(),
                  static_cast<long long>(wg.TotalWeight()));
      if (!RunLadder(wg)) return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
