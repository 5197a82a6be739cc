// E8 — flow-kernel microbenchmark (the exact probe hot path).
//
// Every exact DDS solve reduces to a sequence of min-cut probes, so this
// experiment times exactly that kernel: a parametric binary-search descent
// of density guesses on the DDS network of each dataset (ratio 1, all
// vertices as candidates), solved by Dinic over the network's CSR layout
// (DESIGN.md §12) in two modes:
//
//   * `fresh` cold-solves an identical network copy at every guess;
//   * `probe` replays the real parametric descent — build once, then
//     Reparameterize + warm-started re-solve (DESIGN.md §7).
//
// The guess ladder is decided once (feasible iff max flow < W', the total
// source capacity) and replayed identically by both columns, and every
// solve's flow value is cross-checked against the reference — the bench
// fails loudly if a column disagrees, which is what bench_e8_smoke guards
// in CI. Each rep times one fresh and one probe descent back to back, so
// host drift hits both columns alike; each column reports the median and
// the quartiles over --reps repetitions.
//
// Results are dumped as JSON (--json_out, default BENCH_e8.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

namespace ddsgraph {
namespace bench {
namespace {

FlowCap SourceOutflow(const DdsNetwork& network) {
  FlowCap total = 0;
  for (uint32_t arc : network.source_arcs) total += network.net.FlowOn(arc);
  return total;
}

// One step of the replayed binary-search ladder.
struct GuessStep {
  double guess = 0;
  FlowCap flow_value = 0;  ///< reference max-flow value at this guess
};

// The microbench's own dataset ladder: the shared ExactDatasets graphs are
// sized for full O(n^2)-ratio exact solves and give sub-millisecond flow
// networks, so the kernel columns would time noise. These are the same
// generator families at flow-kernel scale.
std::vector<Dataset> KernelDatasets(bool quick) {
  std::vector<Dataset> sets;
  sets.push_back(
      {"uni-2k", "uniform", UniformDigraph(2000, 12000, 811), {}, {}});
  sets.push_back({"rmat-4k", "rmat", RmatDigraph(12, 24000, 812), {}, {}});
  {
    PlantedDigraph planted = PlantedDenseBlock(3000, 15000, 25, 40, 1.0, 813);
    sets.push_back({"planted-3k", "planted", std::move(planted.graph),
                    std::move(planted.planted_s),
                    std::move(planted.planted_t)});
  }
  if (!quick) {
    sets.push_back(
        {"uni-8k", "uniform", UniformDigraph(8000, 48000, 814), {}, {}});
    sets.push_back({"rmat-8k", "rmat", RmatDigraph(13, 60000, 815), {}, {}});
  }
  return sets;
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("e8_network_size",
                "E8: flow-kernel microbench (fresh vs warm Dinic)");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  int64_t* reps = flags.Int64(
      "reps", kReps,
      "repetitions per column; the median and quartiles are reported");
  int64_t* num_guesses = flags.Int64(
      "guesses", 12, "binary-search steps per parametric descent");
  std::string* json_out = JsonOutFlag(&flags, "BENCH_e8.json");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E8", "flow kernel: fresh vs warm-started Dinic");
  Table t({"dataset", "net nodes", "net arcs", "fresh dinic", "probe dinic",
           "fresh/probe"});
  JsonWriter json = BenchJson("e8_flow_kernel", static_cast<int>(*reps));
  json.Key("guesses").Int(*num_guesses).Key("datasets").BeginArray();
  for (Dataset& d : KernelDatasets(*quick)) {
    std::vector<VertexId> all(d.graph.NumVertices());
    for (VertexId v = 0; v < d.graph.NumVertices(); ++v) all[v] = v;
    DdsBuildScratch scratch;
    const auto build = [&](double guess) {
      return BuildDdsNetwork(d.graph, all, all, /*sqrt_ratio=*/1.0, guess,
                             &scratch);
    };

    // Decide the guess ladder once with the reference kernel; every timed
    // column replays it. Feasible iff the min cut leaves source capacity
    // unsaturated (max flow < W' = num_pair_edges).
    std::vector<GuessStep> steps;
    {
      double l = 0;
      double u = std::sqrt(static_cast<double>(d.graph.NumEdges()));
      for (int64_t i = 0; i < *num_guesses; ++i) {
        const double guess = 0.5 * (l + u);
        if (guess <= l || guess >= u) break;
        DdsNetwork network = build(guess);
        Dinic dinic(&network.net);
        const FlowCap flow = dinic.Solve(network.source, network.sink);
        const double w_prime =
            static_cast<double>(network.num_pair_edges);
        const bool feasible = flow < w_prime - 1e-6 * std::max(1.0, w_prime);
        steps.push_back({guess, flow});
        if (feasible) {
          l = guess;
        } else {
          u = guess;
        }
      }
    }
    const DdsNetwork probe_net = build(steps.front().guess);
    const int64_t net_nodes = probe_net.NumNodes();
    const int64_t net_arcs = static_cast<int64_t>(probe_net.net.NumArcs());

    const auto check = [&](size_t step, FlowCap value, const char* column) {
      const FlowCap want = steps[step].flow_value;
      if (std::abs(value - want) > 1e-6 * std::max<FlowCap>(1.0, want)) {
        std::fprintf(stderr,
                     "ERROR: %s/%s disagrees at guess %zu: %.12g != %.12g\n",
                     d.name.c_str(), column, step, value, want);
        std::exit(1);
      }
    };

    // Mode 1 — fresh: cold solve on an identical network copy per guess;
    // copies and rebuilds stay outside the timed region, so the column
    // times nothing but kernel arc-scanning.
    const auto time_fresh = [&] {
      double total = 0;
      for (size_t i = 0; i < steps.size(); ++i) {
        DdsNetwork network = build(steps[i].guess);
        WallTimer timer;
        Dinic dinic(&network.net);
        const FlowCap flow = dinic.Solve(network.source, network.sink);
        total += timer.Seconds();
        check(i, flow, "fresh_csr_dinic");
      }
      return total;
    };
    // Mode 2 — probe: the real parametric descent. Build once at the
    // first guess, then Reparameterize + warm re-solve at each subsequent
    // one; the Reparameterize is timed because it *is* part of the
    // incremental kernel cost. The check reads the network's total source
    // outflow, since Resolve returns only the flow it added.
    const auto time_probe = [&] {
      DdsNetwork network = build(steps.front().guess);
      Dinic dinic(&network.net);
      double total = 0;
      for (size_t i = 0; i < steps.size(); ++i) {
        WallTimer timer;
        if (i == 0) {
          dinic.Solve(network.source, network.sink);
        } else {
          network.Reparameterize(steps[i].guess);
          dinic.Resolve(network.source, network.sink);
        }
        total += timer.Seconds();
        check(i, SourceOutflow(network), "probe_csr_dinic");
      }
      return total;
    };
    std::vector<double> fresh_totals;
    std::vector<double> probe_totals;
    for (int64_t r = 0; r < *reps; ++r) {
      fresh_totals.push_back(time_fresh());
      probe_totals.push_back(time_probe());
    }
    const Timing fresh = SummarizeTimes(fresh_totals);
    const Timing probe = SummarizeTimes(probe_totals);

    t.AddRow({d.name, std::to_string(net_nodes), std::to_string(net_arcs),
              FormatSeconds(fresh.median), FormatSeconds(probe.median),
              FormatDouble(fresh.median / probe.median, 2) + "x"});
    json.BeginObject()
        .Key("dataset").String(d.name)
        .Key("family").String(d.family)
        .Key("n").Int(d.graph.NumVertices())
        .Key("m").Int(d.graph.NumEdges())
        .Key("network_nodes").Int(net_nodes)
        .Key("network_arcs").Int(net_arcs)
        .Key("guesses").Int(steps.size());
    AddTiming(&json, "fresh_csr_dinic", fresh);
    AddTiming(&json, "probe_csr_dinic", probe);
    json.EndObject();
  }
  t.PrintMarkdown(std::cout);
  return WriteBenchJson(*json_out, &json.EndArray()) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
