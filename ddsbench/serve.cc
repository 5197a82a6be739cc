// serve_cold and serve_live: an in-process DdsServer at the daemon's
// defaults (2 workers, queue 64, 8 MiB response cache, batch_max 8) driven
// over loopback by closed-loop ServeClient connections, each replaying a
// script generated from the seed before set-up.
//
// serve_cold: 4 connections, Zipf(0.8) over six solve requests that all
// carry a deadline, so none is cachable. Every request runs a solve; with
// 4 callers on 2 workers a short queue forms, and the time goes to
// scheduler batching, entry-lock waits and the engines.
//
// serve_live: 2 connections, Zipf(1.0) over six cachable requests, a
// durable data_dir with fsync = always, and every 40th operation of
// connection 0 an `update` of 16 edge ops on the hot graph. Hits exercise
// the wire and the response cache; a miss after an update pays overlay
// compaction, engine rebind and a solve; every update pays WAL append +
// fsync + the entry lock.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "replay.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/dynamic_digraph.h"
#include "stream/edge_stream.h"
#include "util/thread_pool.h"
#include "util/zipf.h"
#include "workloads.h"

namespace ddsbench {
namespace {

using ddsgraph::DdsEngine;
using ddsgraph::DdsRequest;
using ddsgraph::DdsSolution;
using ddsgraph::EdgeBatch;
using ddsgraph::Status;

constexpr double kDeadlineMs = 60000;  // generous: never interrupts
constexpr int kUpdateEvery = 40;       // connection 0's op index cadence
constexpr int kOpsPerUpdate = 16;
// The graphs are fixed inputs (per-seed graphs moved single solve costs by
// up to +-20%); --seed generates the request and update scripts.
constexpr uint64_t kGraphSeed = 2000;
// A set-up here takes ~0.2 s (mostly the warm-up solves), so a run sets
// up this many times and setup_s is their median.
constexpr int kSetups = 9;
// serve_cold never updates: its traced run measures the write path with
// this many seeded batches on its first graph.
constexpr size_t kReplayBatches = 64;

struct GraphFile {
  std::string name;
  std::string path;
  bool weighted = false;
};

// One distinct solve request of the mix.
struct Item {
  size_t graph = 0;  ///< index into files_
  std::string algo;
  std::string frame;
};

// One operation as the client saw it. Kept compact (float latencies, no
// strings): a serve_live script records ~70k of these, and they count
// toward the process's peak RSS.
struct Sample {
  int32_t item = -1;    ///< -1 for an update
  int32_t update = -1;  ///< update index, or -1 for a solve
  int32_t slice = -1;   ///< into ClientLog::slices
  int32_t bytes = 0;    ///< response size
  bool ok = false;      ///< transport ok and "status": "ok"
  bool hit = false;
  bool coalesced = false;  ///< rode another request's solve
  bool interrupted = false;
  float latency_ms = 0;
  float queue_ms = 0;
  float solve_ms = 0;
  float engine_ms = 0;
  int64_t version = -1;
  int64_t floor = 0;  ///< highest update ack seen before the send
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<std::string> slices;  ///< distinct solution slices seen
  std::vector<std::string> errors;  ///< first few failed operations
  int64_t run_delay_ns = 0;

  void Failed(std::string what) {
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

struct SchedulerSnapshot {
  int64_t accepted = 0;
  int64_t batched = 0;
  int64_t coalesced = 0;
  int64_t rejected = 0;
  int64_t solves = 0;
  int64_t rebuilds = 0;
  ddsgraph::ResponseCacheCounters cache;
};

bool Marker(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\": true") != std::string::npos;
}

// The daemon's defaults: 2 workers, queue 64, 8 MiB cache, batch_max 8.
ddsgraph::ServerOptions DaemonDefaults() {
  ddsgraph::ServerOptions options;
  options.scheduler.workers = 2;
  options.scheduler.queue_capacity = 64;
  options.scheduler.cache_bytes = size_t{8} << 20;
  options.scheduler.batch_max = 8;
  return options;
}

SchedulerSnapshot Snapshot(const ddsgraph::DdsServer& server,
                           const ddsgraph::GraphCatalog& catalog) {
  SchedulerSnapshot s;
  const ddsgraph::RequestScheduler& sched = server.scheduler();
  s.accepted = sched.accepted();
  s.batched = sched.batched();
  s.coalesced = sched.coalesced();
  s.rejected = sched.rejected();
  s.cache = sched.cache_counters();
  for (const ddsgraph::CatalogEntry* e : catalog.Entries()) {
    s.solves += e->num_solves();
    s.rebuilds += e->engine_rebuilds();
  }
  return s;
}

// Fills `s` from a response: status, version, and for an ok solve the
// server-reported times and markers.
void ReadResponse(const std::string& json, bool solve, Sample* s) {
  s->bytes = static_cast<int32_t>(json.size());
  s->ok = ddsgraph::FindJsonString(json, "status").value_or("") == "ok";
  s->version = static_cast<int64_t>(
      ddsgraph::FindJsonNumber(json, "version").value_or(-1));
  if (!s->ok || !solve) return;
  s->queue_ms = ddsgraph::FindJsonNumber(json, "queue_ms").value_or(0);
  s->solve_ms = ddsgraph::FindJsonNumber(json, "solve_ms").value_or(0);
  s->engine_ms = ddsgraph::FindJsonNumber(json, "seconds").value_or(0) * 1e3;
  s->hit = Marker(json, "cache_hit");
  s->coalesced = Marker(json, "coalesced");
  s->interrupted = Marker(json, "interrupted");
}

// The serving layers' metrics from the solve responses of `logs` and the
// counter deltas between two snapshots.
void ServingLayers(const std::vector<ClientLog>& logs,
                   const SchedulerSnapshot& before,
                   const SchedulerSnapshot& after, Metrics* layers) {
  std::vector<double> engine_ms, entry_ms, queue_ms, wire_ms, bytes;
  for (const ClientLog& log : logs) {
    for (const Sample& s : log.samples) {
      if (!s.ok || s.update >= 0) continue;
      wire_ms.push_back(s.latency_ms - s.queue_ms - s.solve_ms);
      bytes.push_back(static_cast<double>(s.bytes));
      if (s.hit) continue;
      queue_ms.push_back(s.queue_ms);
      if (s.coalesced) continue;  // its solve is the leader's
      engine_ms.push_back(s.engine_ms);
      entry_ms.push_back(s.solve_ms - s.engine_ms);
    }
  }
  layers->SetMedian("dds.engine_ms", engine_ms, "ms");
  layers->SetMedian("catalog.entry_ms", entry_ms, "ms");
  // Counter deltas over the script: one reading each.
  const auto delta = [&](const char* name, int64_t a, int64_t b) {
    layers->Set(name, static_cast<double>(a - b), "count", 1);
  };
  delta("catalog.engine_rebuilds", after.rebuilds, before.rebuilds);
  delta("catalog.solves", after.solves, before.solves);
  layers->SetMedian("scheduler.queue_p50_ms", queue_ms, "ms");
  layers->SetQuantile("scheduler.queue_p90_ms", queue_ms, 0.9, "ms");
  const int64_t accepted = after.accepted - before.accepted;
  const int64_t batched = after.batched - before.batched;
  layers->Set("scheduler.batched_frac",
              accepted > 0 ? static_cast<double>(batched) / accepted : 0,
              "frac", accepted);
  delta("scheduler.coalesced", after.coalesced, before.coalesced);
  delta("scheduler.rejected", after.rejected, before.rejected);
  const int64_t hits = after.cache.hits - before.cache.hits;
  const int64_t lookups = hits + after.cache.misses - before.cache.misses;
  layers->Set("cache.hit_frac",
              lookups > 0 ? static_cast<double>(hits) / lookups : 0, "frac",
              lookups);
  delta("cache.invalidations", after.cache.invalidations,
        before.cache.invalidations);
  delta("cache.evictions", after.cache.evictions, before.cache.evictions);
  layers->SetMedian("wire.ms", wire_ms, "ms");
  layers->SetMedian("wire.response_bytes", bytes, "bytes");
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Options& options, bool live)
      : options_(options), live_(live) {}

  ~ServeWorkload() override {
    if (server_ != nullptr) server_->Stop();
  }

  Status Prepare() override {
    const uint64_t s = kGraphSeed;
    const std::string dir = options_.work_dir + "/inputs";
    if (Status st = ResetDir(dir); !st.ok()) return st;
    auto file = [&](const std::string& name, bool weighted) {
      files_.push_back(GraphFile{name, dir + "/" + name + ".txt", weighted});
      return files_.back().path;
    };
    Status st;
    if (!live_) {
      st = WriteEdgeList(
          ddsgraph::PlantedDenseBlock(3000, 12000, 20, 30, 0.9, s + 1).graph,
          file("planted-3k", false));
      if (st.ok()) {
        st = WriteEdgeList(ddsgraph::RmatDigraph(12, 40000, s + 2),
                           file("rmat-40k", false));
      }
      if (st.ok()) {
        st = WriteEdgeList(ddsgraph::UniformDigraph(800, 6000, s + 3),
                           file("uniform-800", false));
      }
      if (st.ok()) {
        st = WriteEdgeList(ddsgraph::UniformWeightedDigraph(600, 4000, s + 4),
                           file("weighted-600", true));
      }
      // Zipf ranks hot -> cold by cost; every solve stays under ~70 ms.
      AddItem(0, "core-approx");
      AddItem(3, "core-approx");
      AddItem(2, "peel-approx");
      AddItem(0, "core-exact");
      AddItem(3, "peel-approx");
      AddItem(1, "core-approx");
    } else {
      st = WriteEdgeList(ddsgraph::RmatDigraph(11, 16000, s + 1),
                         file("hot", false));
      if (st.ok()) {
        st = WriteEdgeList(
            ddsgraph::PlantedDenseBlock(3000, 12000, 20, 30, 0.9, s + 2).graph,
            file("planted-3k", false));
      }
      if (st.ok()) {
        st = WriteEdgeList(ddsgraph::UniformWeightedDigraph(600, 4000, s + 3),
                           file("weighted-600", true));
      }
      // The hot graph's one request takes the top rank, so nearly every
      // update is followed by exactly one miss class (~25 ms solves); the
      // static requests are cached at warm-up and always hit.
      AddItem(0, "core-approx");
      AddItem(1, "core-approx");
      AddItem(2, "core-approx");
      AddItem(1, "core-exact");
      AddItem(2, "peel-approx");
      AddItem(1, "peel-approx");
    }
    if (!st.ok()) return st;

    // The loaded graphs, read back once here for the update generator and
    // later for the oracles and replays.
    for (const GraphFile& f : files_) {
      auto loaded = ddsgraph::LoadEdgeListAuto(f.path, f.weighted);
      if (!loaded.ok()) return loaded.status();
      if (!loaded.value().labels.empty()) {
        return Status::Internal(f.path + " did not load with identity labels");
      }
      loaded_.push_back(
          std::make_unique<ddsgraph::LoadedAnyGraph>(std::move(loaded).value()));
    }

    const int clients = live_ ? 2 : 4;
    const double zipf_s = live_ ? 1.0 : 0.8;
    // Nominal completed operations per second on a 4-vCPU Xeon VM; sizes
    // the fixed-count scripts from --seconds, never read from a clock.
    const double nominal_ops_per_s = live_ ? 3700 : 105;
    const int64_t per_client = std::max<int64_t>(
        kUpdateEvery,
        std::llround(options_.seconds * nominal_ops_per_s / clients));
    scripts_.assign(static_cast<size_t>(clients), {});
    for (int c = 0; c < clients; ++c) {
      ddsgraph::ZipfGenerator zipf(static_cast<int64_t>(items_.size()), zipf_s,
                                   options_.seed * 100 + static_cast<uint64_t>(c));
      for (int64_t i = 0; i < per_client; ++i) {
        if (live_ && c == 0 && i % kUpdateEvery == kUpdateEvery - 1) {
          scripts_[0].push_back(-1 - static_cast<int>(update_frames_.size()));
          update_frames_.push_back("");  // filled below
        } else {
          scripts_[static_cast<size_t>(c)].push_back(
              static_cast<int>(zipf.Next()));
        }
      }
    }
    if (live_) {
      // Connection 0's updates, in script order, on the hot graph.
      batches_ = UpdateBatches(loaded_[0]->graph, update_frames_.size(),
                               kOpsPerUpdate, options_.seed * 100 + 99);
      for (size_t i = 0; i < batches_.size(); ++i) {
        update_frames_[i] = "{\"op\": \"update\", \"graph\": \"" +
                            files_[0].name + "\", \"edges\": \"" +
                            ddsgraph::FormatEdgeOps(batches_[i]) + "\"}";
      }
    }
    return Status::Ok();
  }

  int setups() const override { return kSetups; }

  double SetUp(Tracer* tracer) override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    catalog_.reset();
    ScopedSpan setup(tracer, "setup");
    catalog_ = std::make_unique<ddsgraph::GraphCatalog>();
    if (live_) {
      const std::string data_dir = options_.work_dir + "/data";
      CHECK(ResetDir(data_dir).ok());
      ddsgraph::PersistOptions persist;
      persist.data_dir = data_dir;
      persist.wal.fsync = ddsgraph::FsyncPolicy::kAlways;
      CHECK(catalog_->EnablePersistence(persist).ok());
    }
    {
      ScopedSpan load(tracer, "graph.load", setup.id());
      for (const GraphFile& f : files_) {
        const Status st = catalog_->LoadGraph(f.name, f.path, f.weighted);
        CHECK(st.ok()) << st.ToString();
      }
    }
    edges_loaded_ = 0;
    for (const ddsgraph::CatalogEntry* e : catalog_->Entries()) {
      edges_loaded_ += e->num_edges();
    }
    server_ = std::make_unique<ddsgraph::DdsServer>(catalog_.get(),
                                                    DaemonDefaults());
    auto port = server_->Start();
    CHECK(port.ok()) << port.status().ToString();
    port_ = port.value();
    {
      ScopedSpan warm(tracer, "setup.warmup", setup.id());
      ddsgraph::ServeClient client;
      CHECK(client.Connect("127.0.0.1", port_).ok());
      for (const Item& item : items_) {
        auto response = client.Call(item.frame);
        CHECK(response.ok() &&
              ddsgraph::FindJsonString(response.value(), "status")
                      .value_or("") == "ok")
            << item.frame;
      }
    }
    return setup.End() / 1e3;
  }

  void Measure(Tracer* tracer, Metrics* metrics, Outcome* outcome,
               HostContention* host) override {
    const SchedulerSnapshot before = Snapshot(*server_, *catalog_);
    acked_.store(0);
    logs_.assign(scripts_.size(), ClientLog{});
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < scripts_.size(); ++c) {
      threads.emplace_back([&, c] { RunClient(c, tracer, &ready, &go); });
    }
    while (ready.load() < static_cast<int>(threads.size())) {
      std::this_thread::yield();
    }
    const HostSample host_begin = SampleHost();
    const Clock::time_point start = Clock::now();
    go.store(true);
    for (std::thread& t : threads) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    int64_t exited_delay_ns = 0;
    for (const ClientLog& log : logs_) exited_delay_ns += log.run_delay_ns;
    *host = Contention(host_begin, SampleHost(), exited_delay_ns);
    const double peak_rss = PeakRssMib();
    after_ = Snapshot(*server_, *catalog_);
    before_ = before;

    Verify(outcome);

    std::vector<double> solve_ms, miss_ms;
    int64_t ops = 0;
    for (const ClientLog& log : logs_) {
      for (const Sample& s : log.samples) {
        ++ops;
        if (s.ok && s.update < 0) {
          solve_ms.push_back(s.latency_ms);
          if (!s.hit) miss_ms.push_back(s.latency_ms);
        }
      }
    }
    // serve_cold's deadlines bypass the cache, so there every solve is a
    // miss.
    metrics->Set("throughput_ops", ops / wall_s, "1/s", ops);
    metrics->SetMedian("solve_p50_ms", solve_ms, "ms");
    metrics->SetMedian("miss_p50_ms", miss_ms, "ms");
    metrics->SetQuantile("miss_p90_ms", miss_ms, 0.9, "ms");
    metrics->Set("ok_frac", outcome->ok_frac(), "frac", outcome->attempted);
    metrics->Set("peak_rss_mb", peak_rss, "MiB", 1);
  }

  void Layers(Tracer* tracer, Metrics* layers, Outcome* outcome) override {
    layers->SetMedian("graph.load_ms", tracer->DurationsMs("graph.load"),
                      "ms");
    layers->Set("graph.edges_loaded", static_cast<double>(edges_loaded_),
                "count", static_cast<int64_t>(files_.size()));
    // The core and solver layers on a served solve's width (one thread).
    CoreReplay(loaded_, 1, tracer, layers);
    SolverLayers(SolveReplay(tracer), *tracer, layers);
    ServingLayers(logs_, before_, after_, layers);
    std::vector<std::string> frames;
    for (const int op : scripts_[0]) {
      frames.push_back(op < 0 ? update_frames_[static_cast<size_t>(-1 - op)]
                              : items_[static_cast<size_t>(op)].frame);
    }
    WireReplay(frames, encode_solutions_, tracer, layers);
    UpdateReplay(files_[0].name, loaded_[0]->graph,
                 live_ ? batches_
                       : UpdateBatches(loaded_[0]->graph, kReplayBatches,
                                       kOpsPerUpdate, options_.seed * 100 + 99),
                 options_.work_dir + "/replay", tracer, layers, outcome);
  }

 private:
  void AddItem(size_t graph, const std::string& algo) {
    Item item;
    item.graph = graph;
    item.algo = algo;
    item.frame = "{\"graph\": \"" + files_[graph].name + "\", \"algo\": \"" +
                 algo + "\", \"weighted\": " +
                 (files_[graph].weighted ? "true" : "false");
    if (!live_) {
      item.frame +=
          ", \"deadline_ms\": " + std::to_string(static_cast<int>(kDeadlineMs));
    }
    item.frame += "}";
    items_.push_back(item);
  }

  void RunClient(size_t c, Tracer* tracer, std::atomic<int>* ready,
                 const std::atomic<bool>* go) {
    ClientLog& log = logs_[c];
    log.samples.reserve(scripts_[c].size());
    std::map<std::string, int> slice_ids;
    ddsgraph::ServeClient client;
    Status connected = client.Connect("127.0.0.1", port_);
    ready->fetch_add(1);
    while (!go->load()) std::this_thread::yield();
    for (const int op : scripts_[c]) {
      Sample s;
      const std::string* frame = nullptr;
      if (op < 0) {
        s.update = -1 - op;
        frame = &update_frames_[static_cast<size_t>(s.update)];
      } else {
        s.item = op;
        frame = &items_[static_cast<size_t>(op)].frame;
        if (live_ && items_[static_cast<size_t>(op)].graph == 0) {
          s.floor = acked_.load(std::memory_order_acquire);
        }
      }
      if (!connected.ok()) {
        log.Failed("connect: " + connected.ToString());
        connected = client.Connect("127.0.0.1", port_);
        log.samples.push_back(std::move(s));
        continue;
      }
      const int64_t request = tracer != nullptr ? tracer->NewRequestId() : 0;
      ScopedSpan call(tracer, op < 0 ? "client.update" : "client.solve", 0,
                      request);
      const auto response = client.Call(*frame);
      s.latency_ms = call.End();
      if (!response.ok()) {
        // The connection is dead after a transport error; reconnect and
        // count the operation as failed.
        log.Failed(response.status().ToString());
        client.Close();
        connected = client.Connect("127.0.0.1", port_);
        log.samples.push_back(std::move(s));
        continue;
      }
      const std::string& json = response.value();
      ReadResponse(json, op >= 0, &s);
      if (!s.ok) log.Failed(json);
      if (s.ok && op < 0) {
        // The ack is the linearization point the staleness oracle checks.
        int64_t seen = acked_.load(std::memory_order_relaxed);
        while (seen < s.version &&
               !acked_.compare_exchange_weak(seen, s.version)) {
        }
      }
      if (s.ok && op >= 0) {
        auto slice = ddsgraph::SolutionSliceForCompare(json);
        if (slice.ok()) {
          auto [it, inserted] = slice_ids.emplace(
              std::move(slice).value(), static_cast<int>(log.slices.size()));
          if (inserted) log.slices.push_back(it->first);
          s.slice = it->second;
        }
        if (tracer != nullptr) {
          // Server-reported parts of this request, as children of the call.
          const auto at = [&](double ms) {
            return call.start() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          ms));
          };
          const double wire = s.latency_ms - s.queue_ms - s.solve_ms;
          tracer->RecordReported("wire", call.id(), request, call.start(),
                                 wire);
          tracer->RecordReported("server.queue", call.id(), request, at(0),
                                 s.queue_ms);
          if (!s.hit) {
            tracer->RecordReported("server.solve", call.id(), request,
                                   at(s.queue_ms), s.solve_ms);
            tracer->RecordReported("dds.engine", call.id(), request,
                                   at(s.queue_ms + s.solve_ms - s.engine_ms),
                                   s.engine_ms);
          }
        }
      }
      log.samples.push_back(std::move(s));
    }
    log.run_delay_ns = ThisThreadRunDelayNs();
  }

  // Expected comparable slice of every (item, version) a response named,
  // from direct single-threaded engine solves: static graphs at version 0,
  // the hot graph on a mirror that replays the update batches.
  std::map<std::pair<int, int64_t>, std::string> ExpectedSlices() {
    std::set<std::pair<int, int64_t>> needed;
    for (const ClientLog& log : logs_) {
      for (const Sample& s : log.samples) {
        if (s.ok && s.update < 0 && s.version >= 0) {
          needed.emplace(s.item, s.version);
        }
      }
    }
    struct Job {
      std::pair<int, int64_t> key;
      const ddsgraph::LoadedAnyGraph* graph = nullptr;
      std::unique_ptr<ddsgraph::Digraph> snapshot;  ///< hot graph versions
    };
    std::vector<Job> jobs;
    // The mix has one hot-graph request, so its versions arrive ascending
    // and one mirror replays the batches forward.
    ddsgraph::DynamicDigraph mirror(loaded_[0]->graph);
    size_t applied = 0;
    for (const auto& key : needed) {  // ordered by item, then version
      Job job;
      job.key = key;
      const Item& item = items_[static_cast<size_t>(key.first)];
      if (live_ && item.graph == 0 && key.second > 0) {
        if (static_cast<size_t>(key.second) > batches_.size()) continue;
        while (applied < static_cast<size_t>(key.second)) {
          mirror.ApplyBatch(batches_[applied++]);
        }
        job.snapshot = std::make_unique<ddsgraph::Digraph>(mirror.Snapshot());
      } else if (key.second != 0) {
        continue;  // a static graph never leaves version 0
      }
      job.graph = loaded_[item.graph].get();
      jobs.push_back(std::move(job));
    }
    std::vector<std::string> slices(jobs.size());
    std::vector<DdsSolution> solutions(jobs.size());
    ddsgraph::ThreadPool pool(3);
    pool.ParallelFor(static_cast<int64_t>(jobs.size()), [&](int64_t i,
                                                            int) {
      const Job& job = jobs[static_cast<size_t>(i)];
      const Item& item = items_[static_cast<size_t>(job.key.first)];
      std::unique_ptr<DdsEngine> engine =
          job.snapshot != nullptr
              ? std::make_unique<DdsEngine>(*job.snapshot)
          : job.graph->weighted
              ? std::make_unique<DdsEngine>(job.graph->weighted_graph)
              : std::make_unique<DdsEngine>(job.graph->graph);
      DdsRequest request;
      request.algorithm = *ddsgraph::ParseAlgorithmName(item.algo);
      auto solved = engine->Solve(request);
      CHECK(solved.ok()) << solved.status().ToString();
      solutions[static_cast<size_t>(i)] = solved.value();
      slices[static_cast<size_t>(i)] =
          DirectSolutionSlice(ddsgraph::SolutionJson(solved.value()));
    });
    std::map<std::pair<int, int64_t>, std::string> expected;
    encode_solutions_.clear();
    for (size_t i = 0; i < jobs.size(); ++i) {
      expected[jobs[i].key] = std::move(slices[i]);
      if (jobs[i].key.second == 0) encode_solutions_.push_back(solutions[i]);
    }
    return expected;
  }

  void Verify(Outcome* outcome) {
    const auto expected = ExpectedSlices();
    for (const ClientLog& log : logs_) {
      for (const std::string& e : log.errors) {
        std::fprintf(stderr, "failed operation: %s\n", e.c_str());
      }
      for (const Sample& s : log.samples) {
        ++outcome->attempted;
        if (!s.ok) continue;  // refused or failed: counted as missed
        if (s.update >= 0) {
          // Connection 0 is the only writer, so update k acks version k+1.
          if (s.version != s.update + 1) {
            outcome->Diverged("update " + std::to_string(s.update) +
                              " acked version " + std::to_string(s.version));
            continue;
          }
          ++outcome->ok;
          continue;
        }
        const Item& item = items_[static_cast<size_t>(s.item)];
        const std::string what = files_[item.graph].name + "/" + item.algo +
                                 " at version " + std::to_string(s.version);
        if (s.interrupted) {
          outcome->Diverged(what + ": interrupted");
          continue;
        }
        if (s.version < s.floor) {
          outcome->Diverged(what + ": stale, served after the ack of " +
                            std::to_string(s.floor));
          continue;
        }
        const auto it = expected.find({s.item, s.version});
        if (it == expected.end()) {
          outcome->Diverged(what + ": no such version");
          continue;
        }
        if (s.slice < 0 ||
            log.slices[static_cast<size_t>(s.slice)] != it->second) {
          outcome->Diverged(what +
                            ": served solution differs from the direct "
                            "single-threaded engine");
          continue;
        }
        ++outcome->ok;
      }
    }
  }

  // Three rounds of the mix's distinct requests solved directly at one
  // thread (a served solve's width), exact ones first.
  std::vector<SolveRound> SolveReplay(Tracer* tracer) {
    std::vector<std::unique_ptr<DdsEngine>> engines;
    for (const auto& g : loaded_) {
      engines.push_back(g->weighted
                            ? std::make_unique<DdsEngine>(g->weighted_graph)
                            : std::make_unique<DdsEngine>(g->graph));
    }
    std::vector<SolveRound> rounds(3);
    for (SolveRound& round : rounds) {
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      for (const bool exact : {true, false}) {
        for (const Item& item : items_) {
          DdsRequest request;
          request.algorithm = *ddsgraph::ParseAlgorithmName(item.algo);
          if (ddsgraph::IsExactAlgorithm(request.algorithm) != exact) continue;
          double ms = 0;
          const DdsSolution solution = TimedSolve(
              engines[item.graph].get(), request, tracer, 0, &ms);
          if (exact) {
            round.exact_ms += ms;
            AddStats(solution.stats, &round.stats);
          } else {
            round.approx_ms += ms;
          }
        }
        if (exact) {
          round.exact_wall_s =
              std::chrono::duration<double>(Clock::now() - start).count();
          round.exact_cpu_s = ProcessCpuSeconds() - cpu0;
        }
      }
    }
    return rounds;
  }

  const Options options_;
  const bool live_;
  std::vector<GraphFile> files_;  ///< files_[0] is the hot graph when live
  std::vector<std::unique_ptr<ddsgraph::LoadedAnyGraph>> loaded_;
  std::vector<Item> items_;
  std::vector<std::vector<int>> scripts_;  ///< op >= 0 item, < 0 update
  std::vector<std::string> update_frames_;
  std::vector<EdgeBatch> batches_;

  std::unique_ptr<ddsgraph::GraphCatalog> catalog_;
  std::unique_ptr<ddsgraph::DdsServer> server_;  ///< over catalog_
  int port_ = 0;
  int64_t edges_loaded_ = 0;

  std::atomic<int64_t> acked_{0};
  std::vector<ClientLog> logs_;
  SchedulerSnapshot before_;
  SchedulerSnapshot after_;
  std::vector<DdsSolution> encode_solutions_;
};

}  // namespace

void ServedReplay(const std::vector<ServedGraph>& graphs,
                  const std::vector<std::string>& frames, int rounds,
                  Tracer* tracer, Metrics* layers, Outcome* outcome) {
  ddsgraph::GraphCatalog catalog;
  for (const ServedGraph& g : graphs) {
    const Status st = catalog.LoadGraph(g.name, g.path, g.weighted);
    CHECK(st.ok()) << st.ToString();
  }
  ddsgraph::DdsServer server(&catalog, DaemonDefaults());
  auto port = server.Start();
  CHECK(port.ok()) << port.status().ToString();
  const SchedulerSnapshot before = Snapshot(server, catalog);
  std::vector<ClientLog> logs(1);
  ddsgraph::ServeClient client;
  CHECK(client.Connect("127.0.0.1", port.value()).ok());
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& frame : frames) {
      const int64_t request = tracer != nullptr ? tracer->NewRequestId() : 0;
      ScopedSpan call(tracer, "client.solve", 0, request);
      const auto response = client.Call(frame);
      Sample s;
      s.latency_ms = static_cast<float>(call.End());
      if (response.ok()) ReadResponse(response.value(), true, &s);
      if (!s.ok || s.interrupted) {
        outcome->Diverged("served replay: " +
                          (response.ok() ? response.value()
                                         : response.status().ToString()));
        continue;
      }
      logs[0].samples.push_back(s);
    }
  }
  const SchedulerSnapshot after = Snapshot(server, catalog);
  server.Stop();
  ServingLayers(logs, before, after, layers);
}

std::unique_ptr<Workload> MakeServeCold(const Options& options) {
  return std::make_unique<ServeWorkload>(options, false);
}

std::unique_ptr<Workload> MakeServeLive(const Options& options) {
  return std::make_unique<ServeWorkload>(options, true);
}

}  // namespace ddsbench
