#include "bench_common.h"

#include <cstdio>
#include <fstream>
#include <thread>

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

Timing SummarizeTimes(const std::vector<double>& seconds) {
  return {Quantile(seconds, 0.5), Quantile(seconds, 0.25),
          Quantile(seconds, 0.75)};
}

Timing TimeMedian(int reps, const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn();
    seconds.push_back(timer.Seconds());
  }
  return SummarizeTimes(seconds);
}

std::string* JsonOutFlag(FlagSet* flags, const std::string& default_path) {
  return flags->String(
      "json_out", default_path,
      "write machine-readable results here (empty string disables)");
}

namespace {

// The first "model name" of /proc/cpuinfo; "unknown" where there is none.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Steal and total ticks of the aggregate "cpu" line of /proc/stat
// (user nice system idle iowait irq softirq steal; guest time is already
// inside user); zero where there is none.
struct HostTicks {
  int64_t steal = 0;
  int64_t total = 0;
};

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (!(stat >> cpu) || cpu != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    int64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// The host's ticks when the bench process started.
const HostTicks kRunStartTicks = ReadHostTicks();

// Share of all host CPU ticks stolen by the hypervisor since the process
// started: a contended run shows here, a quiet one reads ~0.
double RunStealFraction() {
  const HostTicks now = ReadHostTicks();
  const int64_t total = now.total - kRunStartTicks.total;
  if (total <= 0) return 0;
  return static_cast<double>(now.steal - kRunStartTicks.steal) /
         static_cast<double>(total);
}

}  // namespace

JsonWriter BenchJson(const std::string& experiment, int reps) {
  JsonWriter json(/*line_depth=*/2);
  json.BeginObject()
      .Key("experiment").String(experiment)
      .Key("reps").Int(reps);
  return json;
}

void AddTiming(JsonWriter* json, std::string_view key, const Timing& t) {
  json->Key(key).BeginObject()
      .Key("median").Double(t.median, 6)
      .Key("q1").Double(t.q1, 6)
      .Key("q3").Double(t.q3, 6)
      .EndObject();
}

void AddSolverJson(JsonWriter* json, std::string_view name,
                   const DdsSolution& solution, const Timing& time) {
  json->Key(name).BeginObject();
  AddTiming(json, "seconds", time);
  json->Key("density").Double(solution.density, 12)
      .Key("networks_built").Int(solution.stats.flow_networks_built)
      .Key("networks_reused").Int(solution.stats.flow_networks_reused)
      .Key("warm_start_augmentations")
      .Int(solution.stats.warm_start_augmentations)
      .Key("binary_search_iters").Int(solution.stats.binary_search_iters)
      .Key("ratios_probed").Int(solution.stats.ratios_probed)
      .EndObject();
}

bool WriteBenchJson(const std::string& path, JsonWriter* json) {
  json->Key("provenance").BeginObject()
      .Key("hardware_concurrency").Int(std::thread::hardware_concurrency())
      .Key("cpu_model").String(CpuModel())
      .Key("compiler").String(__VERSION__)
      .Key("build_type").String(DDSGRAPH_BUILD_TYPE)
      .Key("git_revision").String(DDSGRAPH_GIT_REVISION)
      .Key("host_steal_frac").Double(RunStealFraction(), 6)
      .EndObject()
      .EndObject();
  if (path.empty()) return true;
  std::ofstream out(path);
  out << json->str() << "\n";
  if (!out.flush()) {
    std::fprintf(stderr, "ERROR: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
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
