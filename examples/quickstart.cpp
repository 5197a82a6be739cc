// Quickstart: find the densest directed subgraph of a small graph.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The public API in three steps: build a Digraph, solve through a
// DdsEngine (construct it once per graph, then issue DdsRequests — the
// engine keeps its solver scratch warm across queries), inspect the
// returned (S, T) pair. SolveExactDds(g, ExactOptions{}) is the one-shot
// call when a single query is all you need.

#include <cstdio>

#include "ddsgraph.h"

int main() {
  using namespace ddsgraph;

  // A toy "who-follows-whom" network. Vertices 0..2 are fan accounts that
  // all follow the two celebrities 3 and 4; everything else is scattered.
  DigraphBuilder builder(8);
  for (VertexId fan : {0, 1, 2}) {
    builder.AddEdge(fan, 3);
    builder.AddEdge(fan, 4);
  }
  builder.AddEdge(3, 4);
  builder.AddEdge(5, 6);
  builder.AddEdge(6, 7);
  builder.AddEdge(7, 5);
  const Digraph graph = std::move(builder).Build();

  std::printf("graph: n=%u m=%lld\n", graph.NumVertices(),
              static_cast<long long>(graph.NumEdges()));

  // An engine is bound to one graph and serves any number of queries.
  DdsEngine engine(graph);

  // Exact solve (the paper's CoreExact — the default request). A request
  // can also carry ExactOptions, a wall-clock deadline_seconds, and a
  // progress/cancellation callback; errors come back as a Status instead
  // of aborting.
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const DdsSolution exact = engine.Solve(request).value();
  std::printf("\nCoreExact: %s\n", SolutionSummary(exact).c_str());
  std::printf("  S (sources): ");
  for (VertexId u : exact.pair.s) std::printf("%u ", u);
  std::printf("\n  T (targets): ");
  for (VertexId v : exact.pair.t) std::printf("%u ", v);
  std::printf("\n");

  // The 2-approximation through the same engine: only the request
  // changes, and the certified [lower, upper] bracket of the optimum is
  // in the solution. On this graph it happens to find the optimum.
  request.algorithm = DdsAlgorithm::kCoreApprox;
  const DdsSolution approx = engine.Solve(request).value();
  std::printf(
      "\nCoreApprox: density=%.4f (certified within [%.4f, %.4f]); "
      "this was engine solve #%lld\n",
      approx.density, approx.lower_bound, approx.upper_bound,
      static_cast<long long>(approx.stats.prior_engine_solves + 1));

  // The density of any pair can be evaluated directly.
  const double fans_to_celebs = PairDensity(graph, {0, 1, 2}, {3, 4});
  std::printf("\nrho({fans}, {celebrities}) = %.4f\n", fans_to_celebs);
  return 0;
}
