// E6 — number of ratio values probed (the paper's divide-and-conquer
// effectiveness figure).
//
// The ratio space has ~0.6 n^2 realizable values; FlowExact probes all of
// them, the D&C variants only a handful. Reported per dataset: probes,
// intervals pruned, and total min-cut computations.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "dds/core_exact.h"
#include "dds/solver.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

int Main(int argc, const char* const* argv) {
  FlagSet flags("e6_ratio_trials", "E6: ratio probes, baseline vs D&C");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E6", "ratio-space exploration");
  Table t({"dataset", "realizable-ratios", "flow-exact probes",
           "dc-exact probes", "core-exact probes", "core-exact pruned",
           "flow-exact cuts", "core-exact cuts"});
  for (const Dataset& d : ExactDatasets(*quick)) {
    const DdsSolution flow = SolveExactDds(
        d.graph, ExactPresetFor(DdsAlgorithm::kFlowExact, ExactOptions{}));
    const DdsSolution dc = SolveExactDds(
        d.graph, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
    const DdsSolution core = SolveExactDds(d.graph, ExactOptions{});
    t.AddRow({d.name, std::to_string(flow.stats.ratios_probed),
              std::to_string(flow.stats.ratios_probed),
              std::to_string(dc.stats.ratios_probed),
              std::to_string(core.stats.ratios_probed),
              std::to_string(core.stats.intervals_pruned),
              std::to_string(flow.stats.flow_networks_built),
              std::to_string(core.stats.flow_networks_built)});
  }
  t.PrintMarkdown(std::cout);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
