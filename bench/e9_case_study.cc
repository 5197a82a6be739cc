// E9 — case study: recovering a planted fraud block (the paper's
// application anecdote, operationalized).
//
// A fake-review campaign looks like a near-complete bipartite block from a
// small set of spam accounts (S) to a set of boosted products (T), buried
// in organic background traffic. We plant such blocks at several densities
// and measure how precisely CoreApprox and CoreExact recover the planted
// accounts, reporting precision/recall/F1 on both sides.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/core_approx.h"
#include "dds/core_exact.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

struct Prf {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
};

Prf Score(const std::vector<VertexId>& got,
          const std::vector<VertexId>& truth) {
  if (got.empty() || truth.empty()) return {};
  std::vector<VertexId> a = got;
  std::vector<VertexId> b = truth;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<VertexId> inter;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  Prf out;
  out.precision = static_cast<double>(inter.size()) / a.size();
  out.recall = static_cast<double>(inter.size()) / b.size();
  if (out.precision + out.recall > 0) {
    out.f1 = 2 * out.precision * out.recall / (out.precision + out.recall);
  }
  return out;
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("e9_case_study", "E9: planted fraud-block recovery");
  int64_t* n = flags.Int64("n", 5000, "background vertices");
  int64_t* background = flags.Int64("background_edges", 25000,
                                    "background edge count");
  int64_t* spammers = flags.Int64("spammers", 25, "planted |S|");
  int64_t* products = flags.Int64("products", 40, "planted |T|");
  bool* quick = flags.Bool("quick", false, "smaller platform, 3 densities");
  flags.ParseOrDie(argc, argv);
  if (*quick) {
    *n = 1500;
    *background = 7500;
  }

  PrintBanner("E9", "fraud-block recovery case study");
  Table t({"block-density", "algo", "rho", "|S|", "|T|", "precision(S)",
           "recall(S)", "precision(T)", "recall(T)", "F1(avg)"});
  const std::vector<double> densities =
      *quick ? std::vector<double>{1.0, 0.8, 0.6}
             : std::vector<double>{1.0, 0.9, 0.8, 0.7, 0.6};
  for (double density : densities) {
    const PlantedDigraph planted = PlantedDenseBlock(
        static_cast<uint32_t>(*n), *background,
        static_cast<uint32_t>(*spammers), static_cast<uint32_t>(*products),
        density, 4242);
    auto report = [&](const char* algo, const std::vector<VertexId>& s_side,
                      const std::vector<VertexId>& t_side, double rho) {
      const Prf ps = Score(s_side, planted.planted_s);
      const Prf pt = Score(t_side, planted.planted_t);
      t.AddRow({FormatDouble(density, 2), algo, FormatDouble(rho, 3),
                std::to_string(s_side.size()), std::to_string(t_side.size()),
                FormatDouble(ps.precision, 3), FormatDouble(ps.recall, 3),
                FormatDouble(pt.precision, 3), FormatDouble(pt.recall, 3),
                FormatDouble((ps.f1 + pt.f1) / 2, 3)});
    };
    const CoreApproxResult approx = CoreApprox(planted.graph);
    report("core-approx", approx.core.s, approx.core.t, approx.density);
    const DdsSolution exact = SolveExactDds(planted.graph, ExactOptions{});
    report("core-exact", exact.pair.s, exact.pair.t, exact.density);
  }
  t.PrintMarkdown(std::cout);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
