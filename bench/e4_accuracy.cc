// E4 — actual approximation quality (the paper's accuracy table/figure).
//
// For every dataset with a computable exact optimum: the actual ratio
// rho(approx) / rho_opt for CoreApprox and PeelApprox, against the
// theoretical guarantees (1/2 and 1/(2 phi(1+eps))). The paper's finding:
// actual ratios sit near 1.0, far above the worst-case bound.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/core_approx.h"
#include "dds/core_exact.h"
#include "dds/peel_approx.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

int Main(int argc, const char* const* argv) {
  FlagSet flags("e4_accuracy", "E4: actual approximation ratios");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E4", "approximation accuracy (actual vs. guaranteed)");
  Table t({"dataset", "rho_opt", "rho(core-approx)", "ratio(core)",
           "rho(peel)", "ratio(peel)", "guarantee"});
  // Both tiers: CoreExact provides the optimum everywhere (that is the
  // point of the paper).
  auto run = [&](const Dataset& d) {
    const DdsSolution exact = SolveExactDds(d.graph, ExactOptions{});
    const CoreApproxResult core = CoreApprox(d.graph);
    const DdsSolution peel = PeelApprox(d.graph);
    t.AddRow({d.name, FormatDouble(exact.density, 4),
              FormatDouble(core.density, 4),
              FormatDouble(core.density / exact.density, 4),
              FormatDouble(peel.density, 4),
              FormatDouble(peel.density / exact.density, 4), "0.5"});
  };
  for (const Dataset& d : ExactDatasets(*quick)) run(d);
  for (const Dataset& d : ApproxDatasets(*quick)) run(d);
  t.PrintMarkdown(std::cout);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
