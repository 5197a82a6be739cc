// E11 — weighted extension (beyond the paper's evaluation; DESIGN.md
// extension section, §9 for the unified engine).
//
// Edge multiplicities change the answer: a small block with heavy repeat
// edges out-weighs a broader unit-weight block. We plant both and show
// that (a) the unweighted solver finds the broad block, (b) the weighted
// solver finds the heavy one, and (c) weighted CoreApprox stays within
// its factor-2 certificate. Also reports unit-weight agreement between
// the weighted and unweighted instantiations as a runtime audit.
//
// Since the weight-policy redesign the weighted path runs the *same*
// engine as the unweighted one and therefore exposes ExactOptions; the
// JSON dump (--json_out, default BENCH_e11.json) records the unified
// engine's timings before/after the parametric probe rung
// (incremental_probe off = rebuild-per-guess, the cost shape of the
// deleted hand-mirrored WeightedCoreExact before it gained network
// reuse) so the weighted perf trajectory is tracked across PRs.

#include <algorithm>
#include <cmath>
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

std::string RangeOf(const std::vector<VertexId>& side) {
  if (side.empty()) return "-";
  std::string out = std::to_string(side.front());
  out += "..";
  out += std::to_string(side.back());
  return out;
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("e11_weighted", "E11: weighted DDS extension");
  bool* quick = flags.Bool("quick", false, "smaller graphs");
  std::string* json_out = JsonOutFlag(&flags, "BENCH_e11.json");
  flags.ParseOrDie(argc, argv);
  const uint32_t n = *quick ? 2000 : 8000;
  const int64_t noise = *quick ? 8000 : 40000;

  PrintBanner("E11", "weighted directed densest subgraph");

  // Background noise + broad unit block (12x12) + narrow heavy block
  // (4x4, weight 12 per edge => weighted density 48 > 12).
  Rng rng(7);
  std::vector<WeightedEdge> edges;
  for (int64_t i = 0; i < noise; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) edges.push_back({u, v, 1});
  }
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = 12; v < 24; ++v) edges.push_back({u, v, 1});
  }
  for (VertexId u = 100; u < 104; ++u) {
    for (VertexId v = 104; v < 108; ++v) edges.push_back({u, v, 12});
  }
  const WeightedDigraph wg = WeightedDigraph::FromEdges(n, edges);
  // The unweighted view of the same topology.
  std::vector<Edge> plain_edges;
  for (const WeightedEdge& e : edges) plain_edges.push_back({e.from, e.to});
  const Digraph g = Digraph::FromEdges(n, std::move(plain_edges));

  Table t({"solver", "objective", "rho", "|S|", "|T|", "S-range", "time"});
  DdsSolution plain;
  DdsSolution weighted;
  DdsSolution weighted_fresh;
  Timing t_weighted;
  Timing t_weighted_fresh;
  {
    const double secs =
        TimeMedian(kReps, [&] { plain = SolveExactDds(g, ExactOptions{}); })
            .median;
    t.AddRow({"core-exact (unweighted)", "|E|/sqrt(|S||T|)",
              FormatDouble(plain.density, 3),
              std::to_string(plain.pair.s.size()),
              std::to_string(plain.pair.t.size()), RangeOf(plain.pair.s),
              FormatSeconds(secs)});
  }
  {
    ExactOptions fresh_options;
    fresh_options.incremental_probe = false;
    t_weighted = TimeMedian(
        kReps, [&] { weighted = SolveExactDds(wg, ExactOptions{}); });
    t_weighted_fresh = TimeMedian(
        kReps, [&] { weighted_fresh = SolveExactDds(wg, fresh_options); });
    t.AddRow({"weighted core-exact (unified)", "w(E)/sqrt(|S||T|)",
              FormatDouble(weighted.density, 3),
              std::to_string(weighted.pair.s.size()),
              std::to_string(weighted.pair.t.size()),
              RangeOf(weighted.pair.s), FormatSeconds(t_weighted.median)});
    t.AddRow({"weighted core-exact (fresh probes)", "w(E)/sqrt(|S||T|)",
              FormatDouble(weighted_fresh.density, 3),
              std::to_string(weighted_fresh.pair.s.size()),
              std::to_string(weighted_fresh.pair.t.size()),
              RangeOf(weighted_fresh.pair.s),
              FormatSeconds(t_weighted_fresh.median)});
  }
  CoreApproxResult approx;
  Timing t_approx;
  {
    t_approx = TimeMedian(kReps, [&] { approx = CoreApprox(wg); });
    std::string core_cell = "[";
    core_cell += std::to_string(approx.best_x);
    core_cell += ",";
    core_cell += std::to_string(approx.best_y);
    core_cell += "]-core";
    t.AddRow({"weighted core-approx", "w(E)/sqrt(|S||T|)",
              FormatDouble(approx.density, 3),
              std::to_string(approx.core.s.size()),
              std::to_string(approx.core.t.size()), core_cell,
              FormatSeconds(t_approx.median)});
  }
  t.PrintMarkdown(std::cout);

  // Audit: on unit weights the two instantiations agree (they are the
  // same engine code, so this must hold bit-exactly; compare loosely to
  // keep the audit robust to future preset drift).
  const WeightedDigraph unit = WeightedDigraph::FromDigraph(g);
  const double d_plain = plain.density;
  const double d_weighted = SolveExactDds(unit, ExactOptions{}).density;
  std::printf("\nunit-weight agreement: unweighted %.6f vs weighted %.6f\n",
              d_plain, d_weighted);
  if (std::abs(weighted_fresh.density - weighted.density) > 1e-9) {
    std::fprintf(stderr,
                 "ERROR: fresh and parametric weighted solves disagree\n");
    return 1;
  }

  JsonWriter json = BenchJson("e11_weighted", kReps);
  json.Key("n").Int(n)
      .Key("noise_edges").Int(noise)
      .Key("note").String(
          "weighted_core_exact_fresh rebuilds the network at every guess; "
          "weighted_core_exact reparameterizes it (parametric probes)");
  AddSolverJson(&json, "weighted_core_exact", weighted, t_weighted);
  AddSolverJson(&json, "weighted_core_exact_fresh", weighted_fresh,
                t_weighted_fresh);
  json.Key("weighted_core_approx").BeginObject();
  AddTiming(&json, "seconds", t_approx);
  json.Key("density").Double(approx.density, 12)
      .EndObject()
      .Key("parametric_speedup")
      .Double(t_weighted_fresh.median / std::max(t_weighted.median, 1e-12),
              3);
  if (!WriteBenchJson(*json_out, &json)) return 1;
  return std::abs(d_plain - d_weighted) < 1e-5 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
