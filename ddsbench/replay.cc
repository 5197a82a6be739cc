#include "replay.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/core_approx.h"
#include "core/xy_core_decomposition.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/wal.h"
#include "stream/dynamic_digraph.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ddsbench {

using ddsgraph::DdsRequest;
using ddsgraph::DdsSolution;
using ddsgraph::EdgeBatch;
using ddsgraph::EdgeOp;
using ddsgraph::Status;

void AddStats(const ddsgraph::SolverStats& s, ddsgraph::SolverStats* total) {
  total->ratios_probed += s.ratios_probed;
  total->flow_networks_built += s.flow_networks_built;
  total->flow_networks_reused += s.flow_networks_reused;
  total->warm_start_augmentations += s.warm_start_augmentations;
  total->arcs_scanned += s.arcs_scanned;
  total->global_relabels += s.global_relabels;
  total->flow_solves_dinic += s.flow_solves_dinic;
  total->flow_solves_push_relabel += s.flow_solves_push_relabel;
  total->binary_search_iters += s.binary_search_iters;
  total->intervals_pruned += s.intervals_pruned;
  total->max_network_nodes =
      std::max(total->max_network_nodes, s.max_network_nodes);
}

DdsSolution TimedSolve(ddsgraph::DdsEngine* engine, DdsRequest request,
                       Tracer* tracer, int64_t parent, double* ms) {
  const bool exact = ddsgraph::IsExactAlgorithm(request.algorithm);
  std::vector<Clock::time_point> ticks;
  if (tracer != nullptr && exact) {
    // The control serializes callbacks, so the vector needs no lock.
    request.progress = [&ticks](const ddsgraph::DdsProgress&) {
      ticks.push_back(Clock::now());
      return true;
    };
  }
  ScopedSpan span(tracer, exact ? "dds.solve.exact" : "dds.solve.approx",
                  parent);
  auto solved = engine->Solve(request);
  *ms = span.End();
  CHECK(solved.ok()) << solved.status().ToString();
  if (!ticks.empty()) {
    tracer->Record("dds.pre_flow", tracer->NewId(), span.id(), 0,
                   span.start(), ticks.front());
    for (size_t i = 1; i < ticks.size(); ++i) {
      tracer->Record("flow.cut", tracer->NewId(), span.id(), 0, ticks[i - 1],
                     ticks[i]);
    }
  }
  return std::move(solved).value();
}

void SolverLayers(const std::vector<SolveRound>& rounds, const Tracer& tracer,
                  Metrics* layers) {
  std::vector<double> exact_ms, approx_ms, parallelism;
  std::vector<double> ratios, iters, pruned, built, reused, reuse_frac, arcs,
      warm, relabels, dinic, push_relabel, max_nodes;
  for (const SolveRound& r : rounds) {
    const ddsgraph::SolverStats& s = r.stats;
    exact_ms.push_back(r.exact_ms);
    approx_ms.push_back(r.approx_ms);
    parallelism.push_back(r.exact_cpu_s / r.exact_wall_s);
    ratios.push_back(static_cast<double>(s.ratios_probed));
    iters.push_back(static_cast<double>(s.binary_search_iters));
    pruned.push_back(static_cast<double>(s.intervals_pruned));
    built.push_back(static_cast<double>(s.flow_networks_built));
    reused.push_back(static_cast<double>(s.flow_networks_reused));
    const int64_t networks = s.flow_networks_built + s.flow_networks_reused;
    reuse_frac.push_back(
        networks > 0 ? static_cast<double>(s.flow_networks_reused) / networks
                     : 0);
    arcs.push_back(static_cast<double>(s.arcs_scanned));
    warm.push_back(static_cast<double>(s.warm_start_augmentations));
    relabels.push_back(static_cast<double>(s.global_relabels));
    dinic.push_back(static_cast<double>(s.flow_solves_dinic));
    push_relabel.push_back(static_cast<double>(s.flow_solves_push_relabel));
    max_nodes.push_back(static_cast<double>(s.max_network_nodes));
  }
  layers->SetMedian("dds.exact_ms", exact_ms, "ms");
  layers->SetMedian("dds.approx_ms", approx_ms, "ms");
  layers->SetMedian("dds.pre_flow_ms", tracer.DurationsMs("dds.pre_flow"),
                    "ms");
  layers->SetMedian("dds.ratios_probed", ratios, "count");
  layers->SetMedian("dds.search_iters", iters, "count");
  layers->SetMedian("dds.intervals_pruned", pruned, "count");
  layers->SetMedian("dds.parallelism", parallelism, "x");
  layers->SetMedian("flow.cut_ms", tracer.DurationsMs("flow.cut"), "ms");
  layers->SetMedian("flow.networks_built", built, "count");
  layers->SetMedian("flow.networks_reused", reused, "count");
  layers->SetMedian("flow.reuse_frac", reuse_frac, "frac");
  layers->SetMedian("flow.arcs_scanned", arcs, "count");
  layers->SetMedian("flow.warm_augmentations", warm, "count");
  layers->SetMedian("flow.global_relabels", relabels, "count");
  layers->SetMedian("flow.dinic_solves", dinic, "count");
  layers->SetMedian("flow.push_relabel_solves", push_relabel, "count");
  layers->SetMedian("flow.max_network_nodes", max_nodes, "count");
}

void CoreReplay(const Graphs& graphs, int threads, Tracer* tracer,
                Metrics* layers) {
  ddsgraph::ThreadPool pool(threads);
  std::vector<double> core_ms;
  for (int rep = 0; rep < 3; ++rep) {
    double sum = 0;
    for (const auto& g : graphs) {
      ScopedSpan span(tracer, "core.approx");
      if (g->weighted) {
        ddsgraph::CoreApprox(g->weighted_graph, &pool);
      } else {
        ddsgraph::CoreApprox(g->graph, &pool);
      }
      sum += span.End();
    }
    core_ms.push_back(sum);
  }
  int64_t skyline_points = 0;
  for (const auto& g : graphs) {
    ScopedSpan span(tracer, "core.skyline");
    skyline_points += static_cast<int64_t>(
        g->weighted ? ddsgraph::CoreSkyline(g->weighted_graph, -1, &pool).size()
                    : ddsgraph::CoreSkyline(g->graph, -1, &pool).size());
  }
  layers->SetMedian("core.approx_ms", core_ms, "ms");
  layers->Set("core.skyline_points", static_cast<double>(skyline_points),
              "count", static_cast<int64_t>(graphs.size()));
}

std::vector<EdgeBatch> UpdateBatches(const ddsgraph::Digraph& g, size_t count,
                                     int ops, uint64_t seed) {
  const uint32_t n = g.NumVertices();
  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  std::unordered_set<uint64_t> present;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v : g.OutNeighbors(u)) {
      arcs.emplace_back(u, v);
      present.insert((uint64_t{u} << 32) | v);
    }
  }
  ddsgraph::Rng rng(seed);
  std::vector<EdgeBatch> batches(count);
  for (EdgeBatch& batch : batches) {
    while (static_cast<int>(batch.size()) < ops) {
      if (rng.NextBool(0.5) && !arcs.empty()) {
        const size_t i = rng.NextBounded(arcs.size());
        const auto [u, v] = arcs[i];
        arcs[i] = arcs.back();
        arcs.pop_back();
        present.erase((uint64_t{u} << 32) | v);
        batch.push_back(EdgeOp::Delete(u, v));
      } else {
        const uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
        const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
        if (u == v || !present.insert((uint64_t{u} << 32) | v).second) {
          continue;
        }
        arcs.emplace_back(u, v);
        batch.push_back(EdgeOp::Insert(u, v));
      }
    }
  }
  return batches;
}

void UpdateReplay(const std::string& name, const ddsgraph::Digraph& g,
                  const std::vector<EdgeBatch>& batches, const std::string& dir,
                  Tracer* tracer, Metrics* layers, Outcome* outcome) {
  ddsgraph::DynamicDigraph dyn(g);
  std::vector<double> apply_us, compact_ms;
  for (const EdgeBatch& batch : batches) {
    {
      ScopedSpan span(tracer, "stream.apply");
      dyn.ApplyBatch(batch);
      apply_us.push_back(span.End() * 1e3);
    }
    ScopedSpan span(tracer, "stream.compact");
    dyn.Snapshot();
    compact_ms.push_back(span.End());
  }
  layers->SetMedian("stream.apply_us", apply_us, "us");
  layers->SetMedian("stream.compact_ms", compact_ms, "ms");
  layers->Set("stream.compactions", static_cast<double>(dyn.compactions()),
              "count", static_cast<int64_t>(batches.size()));

  CHECK(ResetDir(dir).ok());
  {
    ddsgraph::WalReplay replay;
    ddsgraph::WalOptions wal_options;
    wal_options.fsync = ddsgraph::FsyncPolicy::kAlways;
    auto wal = ddsgraph::WriteAheadLog::Open(dir + "/" + name + ".wal",
                                             wal_options, &replay);
    CHECK(wal.ok()) << wal.status().ToString();
    std::vector<double> append_ms;
    for (size_t i = 0; i < batches.size(); ++i) {
      ScopedSpan span(tracer, "wal.append");
      const Status st =
          wal.value()->Append(static_cast<int64_t>(i) + 1, batches[i]);
      append_ms.push_back(span.End());
      if (!st.ok()) outcome->Diverged("wal replay: " + st.ToString());
    }
    layers->SetMedian("wal.append_ms", append_ms, "ms");
    layers->Set("wal.fsyncs", static_cast<double>(wal.value()->fsyncs()),
                "count", static_cast<int64_t>(batches.size()));
    layers->Set("wal.bytes", static_cast<double>(wal.value()->bytes()),
                "bytes", static_cast<int64_t>(batches.size()));
  }
  {
    ddsgraph::GraphCatalog scratch;
    ddsgraph::PersistOptions persist;
    persist.data_dir = dir + "/catalog";
    persist.wal.fsync = ddsgraph::FsyncPolicy::kAlways;
    CHECK(scratch.EnablePersistence(persist).ok());
    CHECK(scratch.AddGraph(name, g).ok());
    ddsgraph::CatalogEntry* entry = scratch.Find(name);
    std::vector<double> apply_ms;
    for (const EdgeBatch& batch : batches) {
      ScopedSpan span(tracer, "catalog.apply");
      const auto applied = entry->ApplyEdgeBatch(batch);
      apply_ms.push_back(span.End());
      if (!applied.ok()) {
        outcome->Diverged("catalog replay: " + applied.status().ToString());
      }
    }
    layers->SetMedian("catalog.apply_ms", apply_ms, "ms");
  }
}

void WireReplay(const std::vector<std::string>& frames,
                const std::vector<DdsSolution>& solutions, Tracer* tracer,
                Metrics* layers) {
  CHECK(!frames.empty() && !solutions.empty());
  std::vector<double> parse_us;
  for (int round = 0; round < 5; ++round) {
    ScopedSpan span(tracer, "wire.parse");
    for (const std::string& frame : frames) {
      CHECK(ddsgraph::ParseWireRequest(frame).ok()) << frame;
    }
    parse_us.push_back(span.End() * 1e3 / static_cast<double>(frames.size()));
  }
  layers->SetMedian("wire.parse_us", parse_us, "us");
  std::vector<double> encode_us;
  constexpr int kReps = 200;
  for (int round = 0; round < 5; ++round) {
    ScopedSpan span(tracer, "wire.encode");
    size_t total = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const DdsSolution& s : solutions) {
        total += ddsgraph::SolutionJson(s).size();
      }
    }
    CHECK(total > 0);
    encode_us.push_back(span.End() * 1e3 /
                        static_cast<double>(kReps * solutions.size()));
  }
  layers->SetMedian("wire.encode_us", encode_us, "us");
}

}  // namespace ddsbench
