// Ratio profile: how directed density varies with the |S|/|T| shape.
//
// The DDS objective searches over all ratios a = |S|/|T|; the best pair at
// a skewed ratio is a hub/authority pattern, at ratio 1 a balanced
// community. This example builds a graph containing both — a broadcast hub
// (one account with many followers) and a tight mutual clique — and prints
// h(a), the best linearized density per probed ratio, exposing the
// two-peaked landscape the divide-and-conquer exact solver navigates.
//
// Run: ./build/examples/ratio_profile

#include <cmath>
#include <cstdio>
#include <iostream>

#include "ddsgraph.h"
#include "util/table.h"

int main() {
  using namespace ddsgraph;

  DigraphBuilder builder(40);
  // Structure A: broadcast hub — vertex 0 points at 1..15.
  for (VertexId v = 1; v <= 15; ++v) builder.AddEdge(0, v);
  // Structure B: a mutual 5-clique on 20..24 (all ordered pairs).
  for (VertexId u = 20; u <= 24; ++u) {
    for (VertexId v = 20; v <= 24; ++v) {
      if (u != v) builder.AddEdge(u, v);
    }
  }
  // Light noise.
  for (VertexId v = 25; v < 39; ++v) builder.AddEdge(v, v + 1);
  const Digraph graph = std::move(builder).Build();

  std::vector<VertexId> all(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) all[v] = v;
  const double upper = std::sqrt(static_cast<double>(graph.NumEdges()));

  std::printf("h(a) = best linearized density at ratio a "
              "(n=%u, m=%lld)\n\n",
              graph.NumVertices(),
              static_cast<long long>(graph.NumEdges()));
  Table t({"ratio a", "h(a) lower", "h(a) upper", "best |S|", "best |T|",
           "true density"});
  const std::vector<Fraction> probes = {
      {1, 15}, {1, 8}, {1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}};
  for (const Fraction& ratio : probes) {
    const RatioProbeResult probe = ProbeRatio(
        graph, all, all, {ratio, 0.0, upper, ExactSearchDelta(graph)},
        ExactOptions{});
    t.AddRow({ratio.ToString(), FormatDouble(probe.last_feasible, 3),
              FormatDouble(probe.h_upper, 3),
              std::to_string(probe.best_pair.s.size()),
              std::to_string(probe.best_pair.t.size()),
              FormatDouble(probe.best_density, 3)});
  }
  t.PrintMarkdown(std::cout);

  // The exact solver picks the winner of the two-peaked landscape: the
  // mutual clique (density 20/5 = 4) edges out the hub (15/sqrt(15) ~
  // 3.873). Solved through the engine facade with a progress callback —
  // the same hook a server would use to stream bound convergence or to
  // cancel a runaway query.
  DdsEngine engine(graph);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  int64_t progress_checks = 0;
  request.progress = [&progress_checks](const DdsProgress&) {
    ++progress_checks;
    return true;  // keep going; returning false cancels the solve
  };
  const DdsSolution exact = engine.Solve(request).value();
  std::printf("\nCoreExact verdict: %s\n", SolutionSummary(exact).c_str());
  std::printf("(progress callback invoked %lld times — one chance to "
              "cancel per min-cut)\n",
              static_cast<long long>(progress_checks));
  return 0;
}
