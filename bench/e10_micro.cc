// E10 — microbenchmarks (google-benchmark): substrate throughput.
//
// Not a paper figure; engineering data backing the design choices in
// DESIGN.md: Dinic vs push-relabel on DDS feasibility networks, the
// parametric probe engine versus fresh-build-per-guess probing, [x,y]-core
// peeling throughput, the fixed-x decomposition sweep, and the full
// CoreApprox pass.
//
// Machine-readable output: pass
//   --benchmark_out=BENCH_e10.json --benchmark_out_format=json
// and the per-benchmark counters below (networks_built, networks_reused,
// warm_start_augmentations, binary_search_iters) land in the JSON so the
// perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/core_approx.h"
#include "core/xy_core.h"
#include "core/xy_core_decomposition.h"
#include "dds/core_exact.h"
#include "dds/peel_approx.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "flow/push_relabel.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

Digraph BenchGraph(int64_t scale) {
  return RmatDigraph(static_cast<uint32_t>(scale), 25ll << scale, 77);
}

std::vector<VertexId> AllVertices(const Digraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  return all;
}

DdsNetwork MakeNetwork(const Digraph& g) {
  // A mid-search feasibility test: ratio 1, guess at half the density
  // upper bound (a regime where the cut is non-trivial).
  const double guess = 0.5 * std::sqrt(static_cast<double>(g.NumEdges()));
  return BuildDdsNetwork(g, AllVertices(g), AllVertices(g), 1.0, guess);
}

void BM_DinicOnDdsNetwork(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  DdsNetwork net = MakeNetwork(g);
  for (auto _ : state) {
    net.net.ResetFlow();
    Dinic dinic(&net.net);
    benchmark::DoNotOptimize(dinic.Solve(net.source, net.sink));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_DinicOnDdsNetwork)->Arg(8)->Arg(10)->Arg(12);

void BM_PushRelabelOnDdsNetwork(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  DdsNetwork net = MakeNetwork(g);
  for (auto _ : state) {
    net.net.ResetFlow();
    PushRelabel pr(&net.net);
    benchmark::DoNotOptimize(pr.Solve(net.source, net.sink));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PushRelabelOnDdsNetwork)->Arg(8)->Arg(10)->Arg(12);

// The parametric probe engine (DESIGN.md §7) against fresh-build-per-guess
// probing: one complete ProbeRatio binary search at ratio 1, either
// reusing + warm-starting one network per candidate snapshot or rebuilding
// and re-solving that same snapshot from scratch at every guess. Same
// trajectories, so the speedup is pure engine win.
void ProbeRatioBenchmark(benchmark::State& state, bool incremental) {
  const Digraph g = BenchGraph(state.range(0));
  const std::vector<VertexId> all = AllVertices(g);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  const double delta = ExactSearchDelta(g);
  ExactOptions options;
  options.incremental_probe = incremental;
  ProbeWorkspace workspace;
  RatioProbeResult result;
  for (auto _ : state) {
    result = ProbeRatio(g, all, all, {Fraction{1, 1}, 0.0, upper, delta},
                        options, &workspace);
    benchmark::DoNotOptimize(result.h_upper);
  }
  state.counters["networks_built"] =
      static_cast<double>(result.flow.flow_networks_built);
  state.counters["networks_reused"] =
      static_cast<double>(result.flow.flow_networks_reused);
  state.counters["warm_start_augmentations"] =
      static_cast<double>(result.flow.warm_start_augmentations);
  state.counters["binary_search_iters"] =
      static_cast<double>(result.flow.binary_search_iters);
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}

void BM_ProbeRatioParametric(benchmark::State& state) {
  ProbeRatioBenchmark(state, /*incremental=*/true);
}
BENCHMARK(BM_ProbeRatioParametric)->Arg(8)->Arg(10)->Arg(12);

void BM_ProbeRatioFreshBuild(benchmark::State& state) {
  ProbeRatioBenchmark(state, /*incremental=*/false);
}
BENCHMARK(BM_ProbeRatioFreshBuild)->Arg(8)->Arg(10)->Arg(12);

// Reparameterize + warm re-solve of a single network across a guess
// swing, against rebuild + cold solve of the same two networks.
void BM_ReparameterizeSwing(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  const std::vector<VertexId> all = AllVertices(g);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  DdsNetwork net = BuildDdsNetwork(g, all, all, 1.0, 0.5 * upper);
  Dinic dinic(&net.net);
  dinic.Solve(net.source, net.sink);
  for (auto _ : state) {
    net.Reparameterize(0.6 * upper);
    dinic.Resolve(net.source, net.sink);
    net.Reparameterize(0.5 * upper);
    dinic.Resolve(net.source, net.sink);
  }
  state.SetItemsProcessed(2 * state.iterations() * g.NumEdges());
}
BENCHMARK(BM_ReparameterizeSwing)->Arg(8)->Arg(10)->Arg(12);

void BM_RebuildSwing(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  const std::vector<VertexId> all = AllVertices(g);
  const double upper = std::sqrt(static_cast<double>(g.NumEdges()));
  DdsBuildScratch scratch;
  for (auto _ : state) {
    for (double factor : {0.6, 0.5}) {
      DdsNetwork net =
          BuildDdsNetwork(g, all, all, 1.0, factor * upper, &scratch);
      Dinic dinic(&net.net);
      benchmark::DoNotOptimize(dinic.Solve(net.source, net.sink));
    }
  }
  state.SetItemsProcessed(2 * state.iterations() * g.NumEdges());
}
BENCHMARK(BM_RebuildSwing)->Arg(8)->Arg(10)->Arg(12);

void BM_XyCorePeel(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeXyCore(g, 2, 2));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_XyCorePeel)->Arg(8)->Arg(10)->Arg(12)->Arg(14);

void BM_MaxYForXSweep(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxYForX(g, 2));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_MaxYForXSweep)->Arg(8)->Arg(10)->Arg(12)->Arg(14);

void BM_CoreApprox(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreApprox(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CoreApprox)->Arg(8)->Arg(10)->Arg(12);

void BM_PeelApproxSinglePassGraph(benchmark::State& state) {
  const Digraph g = BenchGraph(state.range(0));
  PeelApproxOptions options;
  options.epsilon = 2.0;  // few ladder points: measures the peel kernel
  for (auto _ : state) {
    benchmark::DoNotOptimize(PeelApprox(g, options));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PeelApproxSinglePassGraph)->Arg(8)->Arg(10)->Arg(12);

}  // namespace
}  // namespace ddsgraph

BENCHMARK_MAIN();
