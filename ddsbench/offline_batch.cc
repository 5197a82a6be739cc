// offline_batch: the paper's use case. One caller solves a fixed battery of
// generated graphs through DdsEngine at threads = 2, with no server. All
// time goes to the graph, core, flow and dds layers and the parallel solve
// layer, none to serve, stream or WAL code, so this workload is the bypass
// case for every serving change. Its traced run measures those layers with
// replays of its own inputs (replay.h).

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "replay.h"
#include "util/random.h"
#include "workloads.h"

namespace ddsbench {
namespace {

using ddsgraph::DdsAlgorithm;
using ddsgraph::DdsEngine;
using ddsgraph::DdsRequest;
using ddsgraph::DdsSolution;
using ddsgraph::Status;

constexpr int kThreads = 2;
// One exact pass plus one approximation pass takes 3-4 s on a 4-vCPU Xeon
// VM; the pass count is fixed from --seconds with this, never timed. Single
// solves vary by up to 2x between passes even on a quiet host, so the
// medians need many passes: 8 at the default 20 s.
constexpr double kNominalPassSeconds = 2.5;
constexpr int kMinPasses = 3;
// The battery's graphs are fixed inputs: with per-seed graphs the exact
// pass's flow work (arcs scanned) ranged over +-20% between seeds, which
// would swamp any change under test. --seed picks each pass's solve order.
constexpr uint64_t kGraphSeed = 1000;
// The update replay's batches on rmat-50k: offline_batch never updates, so
// the write-path layers are measured on its input alone.
constexpr size_t kReplayBatches = 64;
constexpr int kOpsPerBatch = 16;

const DdsAlgorithm kApproxAlgorithms[] = {DdsAlgorithm::kCoreApprox,
                                          DdsAlgorithm::kPeelApprox};

struct GraphFile {
  std::string name;
  std::string path;
  bool weighted = false;
};

// One timed Solve and what the oracles and layers need from it.
struct SolveRecord {
  size_t graph = 0;
  DdsAlgorithm algorithm = DdsAlgorithm::kCoreExact;
  DdsSolution solution;
};

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

class OfflineBatch : public Workload {
 public:
  explicit OfflineBatch(const Options& options) : options_(options) {}

  Status Prepare() override {
    const uint64_t s = kGraphSeed;
    const std::string dir = options_.work_dir + "/inputs";
    if (Status st = ResetDir(dir); !st.ok()) return st;
    files_ = {{"rmat-50k", dir + "/rmat-50k.txt", false},
              {"planted-100k", dir + "/planted-100k.txt", false},
              {"rmat-100k", dir + "/rmat-100k.txt", false},
              {"weighted-rmat-16k", dir + "/weighted-rmat-16k.txt", true}};
    Status st = WriteEdgeList(ddsgraph::RmatDigraph(13, 50000, s + 1),
                              files_[0].path);
    if (st.ok()) {
      st = WriteEdgeList(
          ddsgraph::PlantedDenseBlock(20000, 100000, 30, 45, 0.9, s + 2).graph,
          files_[1].path);
    }
    if (st.ok()) {
      st = WriteEdgeList(ddsgraph::RmatDigraph(14, 100000, s + 3),
                         files_[2].path);
    }
    if (st.ok()) {
      st = WriteEdgeList(ddsgraph::AttachRandomWeights(
                             ddsgraph::RmatDigraph(11, 16000, s + 4), s + 5),
                         files_[3].path);
    }
    const int passes = std::max<int>(
        kMinPasses,
        static_cast<int>(std::lround(options_.seconds / kNominalPassSeconds)));
    ddsgraph::Rng rng(options_.seed);
    orders_.assign(static_cast<size_t>(passes),
                   std::vector<size_t>(files_.size()));
    for (std::vector<size_t>& order : orders_) {
      std::iota(order.begin(), order.end(), size_t{0});
      std::shuffle(order.begin(), order.end(), rng);
    }
    return st;
  }

  // A set-up takes ~3.5 s (loads plus a warm-up of all twelve solves).
  int setups() const override { return 3; }

  double SetUp(Tracer* tracer) override {
    engines_.clear();
    graphs_.clear();
    ScopedSpan setup(tracer, "setup");
    {
      ScopedSpan load(tracer, "graph.load", setup.id());
      for (const GraphFile& file : files_) {
        auto loaded = ddsgraph::LoadEdgeListAuto(file.path, file.weighted);
        CHECK(loaded.ok()) << loaded.status().ToString();
        graphs_.push_back(std::make_unique<ddsgraph::LoadedAnyGraph>(
            std::move(loaded).value()));
      }
    }
    for (const auto& g : graphs_) {
      engines_.push_back(g->weighted
                             ? std::make_unique<DdsEngine>(g->weighted_graph)
                             : std::make_unique<DdsEngine>(g->graph));
    }
    {
      ScopedSpan warm(tracer, "setup.warmup", setup.id());
      for (auto& engine : engines_) {
        for (DdsAlgorithm algorithm :
             {DdsAlgorithm::kCoreExact, DdsAlgorithm::kCoreApprox,
              DdsAlgorithm::kPeelApprox}) {
          CHECK(engine->Solve(Request(algorithm)).ok());
        }
      }
    }
    return setup.End() / 1e3;
  }

  void Measure(Tracer* tracer, Metrics* metrics, Outcome* outcome,
               HostContention* host) override {
    records_.clear();
    rounds_.clear();
    std::vector<double> solve_ms;
    const HostSample host_begin = SampleHost();
    const Clock::time_point start = Clock::now();
    for (const std::vector<size_t>& order : orders_) {
      SolveRound round;
      {
        const double cpu0 = ProcessCpuSeconds();
        ScopedSpan span(tracer, "offline.pass.exact");
        for (size_t g : order) {
          solve_ms.push_back(
              Solve(tracer, span.id(), g, DdsAlgorithm::kCoreExact));
          round.exact_ms += solve_ms.back();
          AddStats(records_.back().solution.stats, &round.stats);
        }
        round.exact_wall_s = span.End() / 1e3;
        round.exact_cpu_s = ProcessCpuSeconds() - cpu0;
      }
      {
        ScopedSpan span(tracer, "offline.pass.approx");
        for (DdsAlgorithm algorithm : kApproxAlgorithms) {
          for (size_t g : order) {
            solve_ms.push_back(Solve(tracer, span.id(), g, algorithm));
            round.approx_ms += solve_ms.back();
          }
        }
      }
      rounds_.push_back(round);
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    *host = Contention(host_begin, SampleHost(), 0);
    const double peak_rss = PeakRssMib();

    Verify(outcome);
    // No cache stands in front of the engine here, so every solve is a
    // miss and the miss percentiles are those of all solves.
    const auto solves = static_cast<int64_t>(solve_ms.size());
    metrics->Set("throughput_ops", static_cast<double>(solves) / wall_s, "1/s",
                 solves);
    metrics->SetMedian("solve_p50_ms", solve_ms, "ms");
    metrics->SetMedian("miss_p50_ms", solve_ms, "ms");
    metrics->SetQuantile("miss_p90_ms", solve_ms, 0.9, "ms");
    metrics->Set("ok_frac", outcome->ok_frac(), "frac", outcome->attempted);
    metrics->Set("peak_rss_mb", peak_rss, "MiB", 1);
  }

  void Layers(Tracer* tracer, Metrics* layers, Outcome* outcome) override {
    layers->SetMedian("graph.load_ms", tracer->DurationsMs("graph.load"),
                      "ms");
    int64_t edges = 0;
    for (const auto& g : graphs_) {
      edges += g->weighted ? g->weighted_graph.NumEdges() : g->graph.NumEdges();
    }
    layers->Set("graph.edges_loaded", static_cast<double>(edges), "count",
                static_cast<int64_t>(graphs_.size()));
    // The core layer on a pool of the same width the engine uses.
    CoreReplay(graphs_, kThreads, tracer, layers);
    SolverLayers(rounds_, *tracer, layers);

    // The battery through the serving stack (one connection, a missing
    // round then a hitting one), the write path, and the wire codec.
    std::vector<ServedGraph> served;
    for (const GraphFile& f : files_) {
      served.push_back(ServedGraph{f.name, f.path, f.weighted});
    }
    std::vector<std::string> frames;
    for (const GraphFile& f : files_) {
      for (const char* algo : {"core-exact", "core-approx", "peel-approx"}) {
        frames.push_back("{\"graph\": \"" + f.name + "\", \"algo\": \"" +
                         algo + "\", \"weighted\": " +
                         (f.weighted ? "true" : "false") + "}");
      }
    }
    ServedReplay(served, frames, 2, tracer, layers, outcome);
    UpdateReplay(files_[0].name, graphs_[0]->graph,
                 UpdateBatches(graphs_[0]->graph, kReplayBatches, kOpsPerBatch,
                               options_.seed),
                 options_.work_dir + "/replay", tracer, layers, outcome);
    std::vector<DdsSolution> solutions;
    const size_t per_pass = files_.size() * 3;
    for (size_t i = 0; i < per_pass && i < records_.size(); ++i) {
      solutions.push_back(records_[i].solution);
    }
    WireReplay(frames, solutions, tracer, layers);
  }

 private:
  static DdsRequest Request(DdsAlgorithm algorithm) {
    DdsRequest request;
    request.algorithm = algorithm;
    request.threads = kThreads;
    return request;
  }

  // Solves one request on graph `g`, records the solution, returns the
  // Solve wall in ms.
  double Solve(Tracer* tracer, int64_t parent, size_t g,
               DdsAlgorithm algorithm) {
    double ms = 0;
    DdsSolution solution =
        TimedSolve(engines_[g].get(), Request(algorithm), tracer, parent, &ms);
    records_.push_back(SolveRecord{g, algorithm, std::move(solution)});
    return ms;
  }

  // Exact densities agree across passes with lower == upper; every
  // approximation's bracket contains the exact optimum and its solution is
  // identical on every pass; nothing is interrupted.
  void Verify(Outcome* outcome) {
    std::vector<double> optimum(engines_.size(), -1);
    for (const SolveRecord& r : records_) {
      if (r.algorithm == DdsAlgorithm::kCoreExact && optimum[r.graph] < 0) {
        optimum[r.graph] = r.solution.density;
      }
    }
    std::vector<std::vector<std::string>> approx_slice(
        engines_.size(), std::vector<std::string>(2));
    for (const SolveRecord& r : records_) {
      ++outcome->attempted;
      const DdsSolution& s = r.solution;
      const std::string what = files_[r.graph].name + "/" +
                               ddsgraph::AlgorithmName(r.algorithm) + ": ";
      const double opt = optimum[r.graph];
      bool ok = !s.interrupted;
      if (s.interrupted) outcome->Diverged(what + "interrupted");
      if (r.algorithm == DdsAlgorithm::kCoreExact) {
        if (!Close(s.density, opt) || !Close(s.lower_bound, s.upper_bound) ||
            !Close(s.density, s.lower_bound)) {
          ok = false;
          outcome->Diverged(what + "exact density " +
                            std::to_string(s.density) + " [" +
                            std::to_string(s.lower_bound) + ", " +
                            std::to_string(s.upper_bound) +
                            "] disagrees with " + std::to_string(opt));
        }
      } else {
        const double tol = 1e-9 * std::max(1.0, opt);
        if (s.lower_bound > opt + tol || s.upper_bound < opt - tol ||
            s.density > opt + tol) {
          ok = false;
          outcome->Diverged(what + "bracket [" +
                            std::to_string(s.lower_bound) + ", " +
                            std::to_string(s.upper_bound) +
                            "] misses the optimum " + std::to_string(opt));
        }
        const std::string slice =
            DirectSolutionSlice(ddsgraph::SolutionJson(s));
        std::string& first =
            approx_slice[r.graph][r.algorithm == DdsAlgorithm::kCoreApprox ? 0
                                                                           : 1];
        if (first.empty()) {
          first = slice;
        } else if (slice != first) {
          ok = false;
          outcome->Diverged(what + "solution differs between passes");
        }
      }
      if (ok) ++outcome->ok;
    }
  }

  const Options options_;
  std::vector<GraphFile> files_;
  std::vector<std::vector<size_t>> orders_;  ///< graph order of each pass
  std::vector<std::unique_ptr<ddsgraph::LoadedAnyGraph>> graphs_;
  std::vector<std::unique_ptr<DdsEngine>> engines_;  ///< over graphs_
  std::vector<SolveRecord> records_;
  std::vector<SolveRound> rounds_;  ///< one per pass
};

}  // namespace

std::unique_ptr<Workload> MakeOfflineBatch(const Options& options) {
  return std::make_unique<OfflineBatch>(options);
}

}  // namespace ddsbench
