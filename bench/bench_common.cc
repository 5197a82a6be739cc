#include "bench_common.h"

#include <cstdio>

#include "graph/digraph_builder.h"
#include "util/stats.h"
#include "util/timer.h"

namespace ddsgraph {
namespace bench {

std::vector<Dataset> ExactDatasets(bool quick) {
  std::vector<Dataset> sets;
  // Tiny instance on which even the per-ratio LP baseline finishes.
  sets.push_back({"uni-20", "uniform", UniformDigraph(20, 90, 100), {}, {}});
  sets.push_back({"uni-60", "uniform", UniformDigraph(60, 320, 101), {}, {}});
  sets.push_back({"rmat-128", "rmat", RmatDigraph(7, 700, 103), {}, {}});
  {
    PlantedDigraph planted = PlantedDenseBlock(100, 260, 7, 10, 1.0, 104);
    sets.push_back({"planted-100", "planted", std::move(planted.graph),
                    std::move(planted.planted_s),
                    std::move(planted.planted_t)});
  }
  sets.push_back({"biclique-90", "biclique",
                  BicliqueWithNoise(90, 6, 9, 260, 105), {}, {}});
  if (!quick) {
    sets.push_back(
        {"uni-120", "uniform", UniformDigraph(120, 900, 102), {}, {}});
    sets.push_back({"rmat-256", "rmat", RmatDigraph(8, 1600, 106), {}, {}});
  }
  return sets;
}

std::vector<Dataset> ApproxDatasets(bool quick) {
  std::vector<Dataset> sets;
  sets.push_back(
      {"uni-50k", "uniform", UniformDigraph(10000, 50000, 201), {}, {}});
  sets.push_back({"rmat-50k", "rmat", RmatDigraph(13, 50000, 202), {}, {}});
  {
    PlantedDigraph planted =
        PlantedDenseBlock(20000, 100000, 30, 45, 0.9, 204);
    sets.push_back({"planted-100k", "planted", std::move(planted.graph),
                    std::move(planted.planted_s),
                    std::move(planted.planted_t)});
  }
  if (!quick) {
    sets.push_back(
        {"rmat-200k", "rmat", RmatDigraph(15, 200000, 203), {}, {}});
    sets.push_back(
        {"rmat-500k", "rmat", RmatDigraph(16, 500000, 205), {}, {}});
  }
  return sets;
}

Dataset ScalabilityDataset(bool quick) {
  if (quick) {
    // Sized for the sanitizer lanes' bench_e5_smoke: the peel ladder on
    // rmat-200k took ~180 s under TSan.
    return {"rmat-100k", "rmat", RmatDigraph(14, 100000, 203), {}, {}};
  }
  return {"rmat-500k", "rmat", RmatDigraph(16, 500000, 205), {}, {}};
}

Digraph EdgeFraction(const Digraph& g, double fraction) {
  const std::vector<Edge> edges = g.EdgeList();
  const size_t keep = static_cast<size_t>(
      static_cast<double>(edges.size()) * fraction);
  DigraphBuilder builder(g.NumVertices());
  for (size_t i = 0; i < keep && i < edges.size(); ++i) {
    builder.AddEdge(edges[i].first, edges[i].second);
  }
  return std::move(builder).Build();
}

double TimeOnce(const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  return timer.Seconds();
}

double TimeMedian(int reps, const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) seconds.push_back(TimeOnce(fn));
  return Quantile(std::move(seconds), 0.5);
}

void PrintBanner(const std::string& experiment_id, const std::string& title) {
  std::printf("## %s — %s\n", experiment_id.c_str(), title.c_str());
  std::printf(
      "(synthetic stand-ins for the paper's SNAP datasets; see "
      "EXPERIMENTS.md for the mapping and DESIGN.md §6 for the "
      "substitution rationale)\n\n");
}

}  // namespace bench
}  // namespace ddsgraph
