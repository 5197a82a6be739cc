// E8 — flow-kernel microbenchmark (the exact probe hot path).
//
// Every exact DDS solve reduces to a sequence of min-cut probes, so this
// experiment times exactly that kernel: a parametric binary-search descent
// of density guesses on the DDS network of each dataset (ratio 1, all
// vertices as candidates), solved by each engine/mode combination over the
// network's CSR layout (DESIGN.md §12):
//
//   * engine: Dinic vs push-relabel;
//   * mode:  `fresh` cold-solves an identical network copy at every guess,
//     `probe` replays the real parametric descent — build once, then
//     Reparameterize + re-solve (warm-started where the engine supports
//     it). The `auto` column is ProbeRatio's kernel rule: push-relabel for
//     a fresh build of at least kPushRelabelMinArcs arcs, warm-started
//     Dinic for every re-solve; the `push_relabel` column re-solves cold
//     and is the evidence for keeping re-solves on Dinic.
//
// The guess ladder is decided once (feasible iff max flow < W', the total
// source capacity) and replayed identically by every column, and every
// solve's flow value is cross-checked against the reference — the bench
// fails loudly if any kernel disagrees, which is what bench_e8_smoke
// guards in CI. Each column reports the median over --reps repetitions.
//
// Results are dumped as JSON (--json_out, default BENCH_e8.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "flow/dds_network.h"
#include "flow/dinic.h"
#include "flow/push_relabel.h"
#include "util/flags.h"
#include "util/stats.h"
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
                "E8: flow-kernel microbench (engine x warm-start)");
  bool* quick = flags.Bool("quick", false, "drop the largest datasets");
  int64_t* reps = flags.Int64(
      "reps", 5, "repetitions per column; the median is reported");
  int64_t* num_guesses = flags.Int64(
      "guesses", 12, "binary-search steps per parametric descent");
  std::string* json_out = flags.String(
      "json_out", "BENCH_e8.json",
      "write machine-readable results here (empty string disables)");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E8", "flow kernel: dinic vs push-relabel, fresh vs warm");
  Table t({"dataset", "net nodes", "net arcs", "fresh dinic", "fresh pr",
           "probe dinic", "probe pr", "probe auto"});
  std::ostringstream json;
  json << "{\n  \"experiment\": \"e8_flow_kernel\",\n  \"guesses\": "
       << *num_guesses << ",\n  \"reps\": " << *reps
       << ",\n  \"statistic\": \"median\",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"datasets\": [";
  bool first_dataset = true;
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
    // copies and rebuilds stay outside the timed region, so the columns
    // compare nothing but kernel arc-scanning.
    const auto time_fresh = [&](auto&& solve, const char* column) {
      std::vector<double> totals;
      for (int64_t r = 0; r < *reps; ++r) {
        double total = 0;
        for (size_t i = 0; i < steps.size(); ++i) {
          DdsNetwork network = build(steps[i].guess);
          WallTimer timer;
          const FlowCap flow = solve(&network);
          total += timer.Seconds();
          check(i, flow, column);
        }
        totals.push_back(total);
      }
      return Quantile(std::move(totals), 0.5);
    };
    const double fresh_csr = time_fresh(
        [](DdsNetwork* network) {
          Dinic solver(&network->net);
          return solver.Solve(network->source, network->sink);
        },
        "fresh_csr_dinic");
    const double fresh_pr = time_fresh(
        [](DdsNetwork* network) {
          PushRelabel solver(&network->net);
          return solver.Solve(network->source, network->sink);
        },
        "fresh_csr_push_relabel");

    // Mode 2 — probe: the real parametric descent. Build once at the
    // first guess, then Reparameterize + re-solve at each subsequent one;
    // the Reparameterize is timed because it *is* part of the incremental
    // kernel cost the engines pay. `solve(network, fresh)` returns the
    // network's total source outflow so warm and cold engines are
    // cross-checked on the same quantity.
    const auto time_probe = [&](auto&& solve, const char* column) {
      std::vector<double> totals;
      for (int64_t r = 0; r < *reps; ++r) {
        DdsNetwork network = build(steps.front().guess);
        double total = 0;
        for (size_t i = 0; i < steps.size(); ++i) {
          WallTimer timer;
          if (i > 0) network.Reparameterize(steps[i].guess);
          solve(&network, /*fresh=*/i == 0);
          total += timer.Seconds();
          check(i, SourceOutflow(network), column);
        }
        totals.push_back(total);
      }
      return Quantile(std::move(totals), 0.5);
    };
    // Engine objects live across the descent (like ProbeRatio's), so the
    // warm solvers keep their per-node state; lambdas re-wrap per rep.
    const double probe_dinic = [&] {
      std::vector<Dinic> storage;
      return time_probe(
          [&](DdsNetwork* network, bool fresh) {
            if (fresh) {
              storage.clear();
              storage.emplace_back(&network->net);
            }
            return fresh
                       ? storage[0].Solve(network->source, network->sink)
                       : storage[0].Resolve(network->source, network->sink);
          },
          "probe_csr_dinic");
    }();
    const double probe_pr = time_probe(
        [](DdsNetwork* network, bool fresh) {
          // Push-relabel has no warm start: every reuse resets the flow
          // and re-solves cold on the reused topology.
          if (!fresh) network->net.ResetFlow();
          PushRelabel solver(&network->net);
          return solver.Solve(network->source, network->sink);
        },
        "probe_csr_push_relabel");
    const double probe_auto = [&] {
      std::vector<Dinic> storage;
      return time_probe(
          [&](DdsNetwork* network, bool fresh) {
            // ProbeRatio's rule: warm-started Dinic for the incremental
            // re-solves; the fresh build goes to push-relabel iff the
            // network clears the size cutoff.
            if (fresh) {
              storage.clear();
              storage.emplace_back(&network->net);
              if (network->net.NumArcs() >= kPushRelabelMinArcs) {
                PushRelabel solver(&network->net);
                return solver.Solve(network->source, network->sink);
              }
              return storage[0].Solve(network->source, network->sink);
            }
            return storage[0].Resolve(network->source, network->sink);
          },
          "probe_csr_auto");
    }();

    t.AddRow({d.name, std::to_string(net_nodes), std::to_string(net_arcs),
              FormatSeconds(fresh_csr), FormatSeconds(fresh_pr),
              FormatSeconds(probe_dinic), FormatSeconds(probe_pr),
              FormatSeconds(probe_auto)});
    if (!first_dataset) json << ",";
    first_dataset = false;
    json << "\n    {\"dataset\": \"" << d.name << "\", \"family\": \""
         << d.family << "\", \"n\": " << d.graph.NumVertices()
         << ", \"m\": " << d.graph.NumEdges()
         << ", \"network_nodes\": " << net_nodes
         << ", \"network_arcs\": " << net_arcs
         << ", \"guesses\": " << steps.size() << ",\n"
         << "     \"fresh\": {\"csr_dinic\": " << fresh_csr
         << ", \"csr_push_relabel\": " << fresh_pr << "},\n"
         << "     \"probe\": {\"csr_dinic\": " << probe_dinic
         << ", \"csr_push_relabel\": " << probe_pr
         << ", \"csr_auto\": " << probe_auto << "}}";
  }
  json << "\n  ]\n}\n";
  t.PrintMarkdown(std::cout);
  if (!json_out->empty()) {
    std::ofstream out(*json_out);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", json_out->c_str());
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << *json_out << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
