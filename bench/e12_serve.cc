// E12 — serving-layer load benchmark (beyond the paper's evaluation;
// DESIGN.md §13).
//
// Closed-loop load against an in-process dds_server: N client threads,
// each with its own connection, replay a Zipfian-skewed mix of
// (graph, algorithm) queries and block for each response before sending
// the next — the strict request/response cycle that measures *latency
// under concurrency* rather than open-loop saturation. The client ladder
// (default 1/4/16) shows how p50/p99 and throughput move as closed-loop
// concurrency grows past the worker count: queueing time (reported
// separately by the server as queue_ms) starts to dominate solve time.
//
// The mix is ordered hot→cold by cost: the approximation algorithms take
// the hot Zipf ranks and core-exact the tail, the shape of an
// interactive service where cheap exploratory queries dominate and
// expensive certified ones are rare.
//
// Correctness is load-bearing, not incidental: every served response is
// cross-checked byte-for-byte against a solution precomputed by a
// *direct* single-threaded DdsEngine on the same graph (the comparable
// slice of SolutionJson — density, pair, vertex lists, bounds; timings
// excluded). Any divergence — a cross-request workspace leak, a
// serialization race, a wire corruption — fails the run with a nonzero
// exit, so the committed BENCH_serve.json doubles as an end-to-end
// identity certificate for the whole serve stack.
//
// The second phase (PR 9) measures the serving fast paths of DESIGN.md
// §15 on a fresh cache-enabled server: a Zipf-hot repeated-query mix —
// all certified exact solves, so a miss visibly costs a solve — with a
// scripted updater thread interleaving deterministic edge batches on the
// hot graph via the `update` verb. Every response is classified by its
// top-level `cache_hit` / `coalesced` markers and bit-compared against a
// direct single-threaded engine solve of the exact logical graph its
// `version` names (one precomputed expectation per version, built from a
// mirror of the update batches); a shared acked-version floor proves no
// stale answer is ever served after an update ack. The phase fails the
// run unless cache-hit p50 latency is >= 20x below cache-miss p50
// (enforced outside --quick) — the headline metric that stays valid on
// 1-CPU hardware, where the multi-client qps ladder above saturates.
//
// JSON dump (--json_out, default BENCH_serve.json): per-rung qps,
// p50/p99/mean client latency, the queue/solve split, and the
// "repeated" section (hit rate, hit-vs-miss latency split, cache and
// batching counters).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/edge_stream.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace ddsgraph {
namespace bench {
namespace {

// One entry of the query mix: a catalog graph plus an algorithm name,
// with the expected comparable solution slice precomputed by a direct
// single-threaded engine before the server starts.
struct MixItem {
  std::string graph;
  std::string algo;
  bool weighted = false;
  std::string request_json;    // the frame every client sends for this item
  std::string expected_slice;  // SolutionJson prefix (before ", "stats")
};

// What one client thread records. Latencies in milliseconds.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  bool failed = false;
  std::string error;
};

std::string BuildRequestJson(const MixItem& item) {
  std::ostringstream out;
  out << "{\"graph\": \"" << item.graph << "\", \"algo\": \"" << item.algo
      << "\", \"weighted\": " << (item.weighted ? "true" : "false") << "}";
  return out.str();
}

// The comparable prefix of a direct SolutionJson: everything before the
// schedule-dependent stats block. Mirrors SolutionSliceForCompare on the
// response side, so the two strings are byte-comparable.
std::string DirectSolutionSlice(const std::string& solution_json) {
  const size_t stats = solution_json.find(", \"stats\"");
  CHECK(stats != std::string::npos)
      << "SolutionJson without a stats block: " << solution_json;
  return solution_json.substr(0, stats);
}

void RunClient(int port, const std::vector<MixItem>& mix, int requests,
               double zipf_s, uint64_t seed, ClientLog* log) {
  ServeClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    log->failed = true;
    log->error = "connect: " + connected.ToString();
    return;
  }
  ZipfGenerator zipf(static_cast<int64_t>(mix.size()), zipf_s, seed);
  log->latency_ms.reserve(static_cast<size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    const MixItem& item = mix[static_cast<size_t>(zipf.Next())];
    WallTimer timer;
    const Result<std::string> response = client.Call(item.request_json);
    const double ms = timer.Seconds() * 1e3;
    if (!response.ok()) {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " +
                   response.status().ToString();
      return;
    }
    const std::string& json = response.value();
    if (FindJsonString(json, "status").value_or("") != "ok") {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " + json;
      return;
    }
    const Result<std::string> slice = SolutionSliceForCompare(json);
    if (!slice.ok() || slice.value() != item.expected_slice) {
      log->failed = true;
      log->error = "DIVERGENCE on " + item.graph + "/" + item.algo +
                   ": served solution differs from the direct "
                   "single-threaded engine\n  expected: " +
                   item.expected_slice + "\n  served:   " +
                   (slice.ok() ? slice.value() : slice.status().ToString());
      return;
    }
    log->latency_ms.push_back(ms);
    log->queue_ms.push_back(FindJsonNumber(json, "queue_ms").value_or(0));
    log->solve_ms.push_back(FindJsonNumber(json, "solve_ms").value_or(0));
  }
}

// ---- the repeated-query (cache) phase -----------------------------------

// One item of the repeated mix. For the graph the updater mutates,
// `expected` holds one comparable slice per version (index = entry
// version); static graphs carry exactly one.
struct RepeatedItem {
  std::string graph;
  std::string algo;
  bool weighted = false;
  bool updated = false;  // the updater's target graph
  std::string request_json;
  std::vector<std::string> expected;
};

// What one repeated-phase client records: latency per response class.
struct RepeatedLog {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> coalesced_ms;
  bool failed = false;
  std::string error;
};

// True when the *top-level* response marker is set (the markers precede
// the embedded solution object, so the first occurrence is the
// top-level one).
bool TopLevelMarker(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\": true") != std::string::npos;
}

void RunRepeatedClient(int port, const std::vector<RepeatedItem>& mix,
                       int requests, double zipf_s, uint64_t seed,
                       const std::atomic<int64_t>* acked_version,
                       RepeatedLog* log) {
  ServeClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    log->failed = true;
    log->error = "connect: " + connected.ToString();
    return;
  }
  ZipfGenerator zipf(static_cast<int64_t>(mix.size()), zipf_s, seed);
  for (int r = 0; r < requests; ++r) {
    const RepeatedItem& item = mix[static_cast<size_t>(zipf.Next())];
    // The staleness floor: any response for the updated graph must be at
    // least as fresh as the highest update ack seen before the send.
    const int64_t floor =
        item.updated ? acked_version->load(std::memory_order_acquire) : 0;
    WallTimer timer;
    const Result<std::string> response = client.Call(item.request_json);
    const double ms = timer.Seconds() * 1e3;
    if (!response.ok()) {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " +
                   response.status().ToString();
      return;
    }
    const std::string& json = response.value();
    if (FindJsonString(json, "status").value_or("") != "ok") {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " + json;
      return;
    }
    const auto version_field = FindJsonNumber(json, "version");
    const int64_t version =
        static_cast<int64_t>(version_field.value_or(-1));
    if (version < floor) {
      log->failed = true;
      log->error = "STALE response on " + item.graph + "/" + item.algo +
                   ": version " + std::to_string(version) +
                   " served after the ack of version " +
                   std::to_string(floor);
      return;
    }
    if (version < 0 ||
        static_cast<size_t>(version) >= item.expected.size()) {
      log->failed = true;
      log->error = item.graph + "/" + item.algo +
                   ": version out of range: " + std::to_string(version);
      return;
    }
    const Result<std::string> slice = SolutionSliceForCompare(json);
    const std::string& expected =
        item.expected[static_cast<size_t>(version)];
    if (!slice.ok() || slice.value() != expected) {
      log->failed = true;
      log->error = "DIVERGENCE on " + item.graph + "/" + item.algo +
                   " at version " + std::to_string(version) +
                   ": served solution differs from the direct "
                   "single-threaded engine\n  expected: " + expected +
                   "\n  served:   " +
                   (slice.ok() ? slice.value() : slice.status().ToString());
      return;
    }
    if (TopLevelMarker(json, "cache_hit")) {
      log->hit_ms.push_back(ms);
    } else if (TopLevelMarker(json, "coalesced")) {
      log->coalesced_ms.push_back(ms);
    } else {
      log->miss_ms.push_back(ms);
    }
  }
}

// Applies the scripted update frames in order, publishing each acked
// version as the clients' staleness floor.
void RunRepeatedUpdater(int port,
                        const std::vector<std::string>& update_frames,
                        int gap_ms, std::atomic<int64_t>* acked_version,
                        RepeatedLog* log) {
  ServeClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    log->failed = true;
    log->error = "updater connect: " + connected.ToString();
    return;
  }
  for (const std::string& frame : update_frames) {
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    const Result<std::string> response = client.Call(frame);
    if (!response.ok() ||
        FindJsonString(response.value(), "status").value_or("") != "ok") {
      log->failed = true;
      log->error = "update: " + (response.ok()
                                     ? response.value()
                                     : response.status().ToString());
      return;
    }
    const int64_t version = static_cast<int64_t>(
        FindJsonNumber(response.value(), "version").value_or(0));
    // The ack is the client-visible linearization point: everything the
    // clients send after reading this must see >= `version`.
    acked_version->store(version, std::memory_order_release);
  }
}

// ---- the restart (self-healing) phase -----------------------------------

// What one self-healing client records across the restart.
struct RetryLog {
  int verified = 0;
  int64_t reconnects = 0;
  int64_t retries = 0;
  bool failed = false;
  std::string error;
};

// A closed-loop client built on CallRetrying. At its midpoint it parks on
// the barrier until the main thread has bounced the server, so every
// client's second half provably crosses the restart — the reconnect count
// per client must come out >= 1, and every response (both halves) is
// still bit-checked against the direct engine.
void RunRetryingClient(int port, const std::vector<MixItem>& mix,
                       int requests, double zipf_s, uint64_t seed,
                       std::atomic<int>* at_midpoint,
                       const std::atomic<bool>* restarted, RetryLog* log) {
  ServeClientOptions retry_options;
  retry_options.read_timeout_s = 30;
  retry_options.max_attempts = 12;
  retry_options.backoff_initial_ms = 5;
  retry_options.backoff_max_ms = 250;
  retry_options.jitter_seed = seed;
  ServeClient client(retry_options);
  const Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    log->failed = true;
    log->error = "connect: " + connected.ToString();
    return;
  }
  ZipfGenerator zipf(static_cast<int64_t>(mix.size()), zipf_s, seed);
  for (int r = 0; r < requests; ++r) {
    if (r == requests / 2) {
      at_midpoint->fetch_add(1, std::memory_order_acq_rel);
      while (!restarted->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const MixItem& item = mix[static_cast<size_t>(zipf.Next())];
    const Result<std::string> response =
        client.CallRetrying(item.request_json);
    if (!response.ok()) {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " +
                   response.status().ToString();
      return;
    }
    const std::string& json = response.value();
    if (FindJsonString(json, "status").value_or("") != "ok") {
      log->failed = true;
      log->error = item.graph + "/" + item.algo + ": " + json;
      return;
    }
    const Result<std::string> slice = SolutionSliceForCompare(json);
    if (!slice.ok() || slice.value() != item.expected_slice) {
      log->failed = true;
      log->error = "DIVERGENCE after restart on " + item.graph + "/" +
                   item.algo + "\n  expected: " + item.expected_slice +
                   "\n  served:   " +
                   (slice.ok() ? slice.value() : slice.status().ToString());
      return;
    }
    ++log->verified;
  }
  log->reconnects = client.reconnects();
  log->retries = client.retries();
}

}  // namespace

int Main(int argc, char** argv) {
  FlagSet flags("e12_serve",
                "closed-loop load benchmark for the DDS serving daemon");
  bool* quick = flags.Bool("quick", false,
                           "smoke sizes: fewer requests, smaller ladder");
  std::string* client_counts_flag = flags.String(
      "client_counts", "1,4,16",
      "comma-separated closed-loop client ladder (>= 3 rungs for the "
      "committed BENCH_serve.json)");
  int64_t* requests_per_client = flags.Int64(
      "requests_per_client", 48, "requests each client issues per rung");
  double* zipf_s = flags.Double(
      "zipf_s", 1.0, "Zipf exponent of the query mix (0 = uniform)");
  int64_t* seed = flags.Int64("seed", 42, "base RNG seed");
  int64_t* workers = flags.Int64("workers", 2, "scheduler worker threads");
  int64_t* queue_capacity =
      flags.Int64("queue_capacity", 64, "admission queue bound");
  std::string* json_out = flags.String(
      "json_out", "BENCH_serve.json", "output JSON path; empty disables");
  int64_t* repeated_clients = flags.Int64(
      "repeated_clients", 4, "closed-loop clients in the repeated phase");
  int64_t* repeated_requests = flags.Int64(
      "repeated_requests", 150,
      "requests each repeated-phase client issues");
  int64_t* updates = flags.Int64(
      "updates", 6, "scripted edge batches the repeated phase interleaves");
  int64_t* cache_mb = flags.Int64(
      "cache_mb", 8, "response-cache budget (MiB) in the repeated phase");
  bool* restart_mid_run = flags.Bool(
      "restart_mid_run", false,
      "run the crash-recovery phase: kill and restart the server on the "
      "same port while self-healing clients are mid-run (DESIGN.md §16)");
  flags.ParseOrDie(argc, argv);

  PrintBanner("E12", "serving daemon under closed-loop Zipfian load");

  std::vector<int> client_counts;
  {
    std::string tok;
    for (const char c : *client_counts_flag + ",") {
      if (c == ',') {
        if (!tok.empty()) client_counts.push_back(std::atoi(tok.c_str()));
        tok.clear();
      } else {
        tok += c;
      }
    }
  }
  if (*quick && client_counts.size() > 2 &&
      *client_counts_flag == std::string("1,4,16")) {
    client_counts = {1, 2};  // smoke: exercise >1 client, stay tiny
  }
  const int requests = static_cast<int>(*quick ? 8 : *requests_per_client);

  // ---- the catalog and the query mix ------------------------------------
  // Sizes tuned so core-exact (the cold tail of the mix) stays in the low
  // tens of milliseconds: the ladder measures scheduling, not one giant
  // solve. Local copies of the graphs feed the *direct* cross-check
  // engines; the catalog gets its own copies.
  const Digraph uni = UniformDigraph(240, 1600, 5);
  const Digraph rmat = RmatDigraph(8, 1800, 7);
  const WeightedDigraph wuni =
      UniformWeightedDigraph(200, 1200, 13, WeightOptions{});

  GraphCatalog catalog;
  CHECK(catalog.AddGraph("uni", uni).ok());
  CHECK(catalog.AddGraph("rmat", rmat).ok());
  CHECK(catalog.AddGraph("wuni", wuni).ok());

  // Hot → cold: approximations first, certified exact at the Zipf tail.
  std::vector<MixItem> mix = {
      {"rmat", "core-approx", false, "", ""},
      {"uni", "peel-approx", false, "", ""},
      {"wuni", "peel-approx", true, "", ""},
      {"uni", "core-approx", false, "", ""},
      {"wuni", "core-approx", true, "", ""},
      {"rmat", "peel-approx", false, "", ""},
      {"uni", "core-exact", false, "", ""},
      {"rmat", "core-exact", false, "", ""},
      {"wuni", "core-exact", true, "", ""},
  };

  // Precompute every expected solution with direct single-threaded
  // engines, independent of the serve stack.
  {
    DdsEngine uni_engine(uni);
    DdsEngine rmat_engine(rmat);
    DdsEngine wuni_engine(wuni);
    for (MixItem& item : mix) {
      DdsRequest request;
      const std::optional<DdsAlgorithm> algo = ParseAlgorithmName(item.algo);
      CHECK(algo.has_value()) << "bad mix algo " << item.algo;
      request.algorithm = *algo;
      DdsEngine& engine = item.graph == "uni"    ? uni_engine
                          : item.graph == "rmat" ? rmat_engine
                                                 : wuni_engine;
      const Result<DdsSolution> solved = engine.Solve(request);
      CHECK(solved.ok()) << solved.status().ToString();
      item.expected_slice = DirectSolutionSlice(SolutionJson(solved.value()));
      item.request_json = BuildRequestJson(item);
    }
  }

  // ---- the server -------------------------------------------------------
  ServerOptions options;
  options.port = 0;  // ephemeral: benchmarks never fight over a port
  options.scheduler.workers = static_cast<int>(*workers);
  options.scheduler.queue_capacity = static_cast<int>(*queue_capacity);
  DdsServer server(&catalog, options);
  const Result<int> started = server.Start();
  CHECK(started.ok()) << started.status().ToString();
  const int port = started.value();
  std::printf("server on 127.0.0.1:%d — %d workers, queue %d, zipf_s %.2f, "
              "%d requests/client\n\n",
              port, static_cast<int>(*workers),
              static_cast<int>(*queue_capacity), *zipf_s, requests);

  // Warmup: touch every mix item once so the first rung does not pay the
  // engines' first-solve workspace builds.
  {
    ServeClient warm;
    CHECK(warm.Connect("127.0.0.1", port).ok());
    for (const MixItem& item : mix) {
      const Result<std::string> r = warm.Call(item.request_json);
      CHECK(r.ok()) << r.status().ToString();
      CHECK(FindJsonString(r.value(), "status").value_or("") == "ok")
          << r.value();
    }
  }

  // ---- the ladder -------------------------------------------------------
  struct RungResult {
    int clients = 0;
    int total = 0;
    double seconds = 0;
    double qps = 0;
    double p50 = 0, p99 = 0, mean = 0;
    double mean_queue = 0, p99_queue = 0, mean_solve = 0;
  };
  std::vector<RungResult> rungs;
  bool diverged = false;
  std::string divergence;

  Table table({"clients", "qps", "p50_ms", "p99_ms", "mean_ms",
               "queue_ms(mean)", "queue_ms(p99)", "solve_ms(mean)"});
  for (size_t rung_index = 0; rung_index < client_counts.size();
       ++rung_index) {
    const int clients = client_counts[rung_index];
    CHECK(clients >= 1) << "bad --client_counts entry " << clients;
    std::vector<ClientLog> logs(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    WallTimer wall;
    for (int c = 0; c < clients; ++c) {
      const uint64_t client_seed = static_cast<uint64_t>(*seed) +
                                   1009 * (rung_index + 1) +
                                   static_cast<uint64_t>(97 * c);
      threads.emplace_back(RunClient, port, std::cref(mix), requests,
                           *zipf_s, client_seed,
                           &logs[static_cast<size_t>(c)]);
    }
    for (std::thread& t : threads) t.join();
    const double seconds = wall.Seconds();

    std::vector<double> latency, queue, solve;
    for (const ClientLog& log : logs) {
      if (log.failed && !diverged) {
        diverged = true;
        divergence = log.error;
      }
      latency.insert(latency.end(), log.latency_ms.begin(),
                     log.latency_ms.end());
      queue.insert(queue.end(), log.queue_ms.begin(), log.queue_ms.end());
      solve.insert(solve.end(), log.solve_ms.begin(), log.solve_ms.end());
    }
    if (diverged) break;

    RungResult r;
    r.clients = clients;
    r.total = static_cast<int>(latency.size());
    r.seconds = seconds;
    r.qps = seconds > 0 ? r.total / seconds : 0;
    r.p50 = Quantile(latency, 0.5);
    r.p99 = Quantile(latency, 0.99);
    r.mean = Mean(latency);
    r.mean_queue = Mean(queue);
    r.p99_queue = Quantile(queue, 0.99);
    r.mean_solve = Mean(solve);
    rungs.push_back(r);
    table.AddRow({std::to_string(r.clients), FormatDouble(r.qps, 1),
                  FormatDouble(r.p50, 2), FormatDouble(r.p99, 2),
                  FormatDouble(r.mean, 2), FormatDouble(r.mean_queue, 2),
                  FormatDouble(r.p99_queue, 2),
                  FormatDouble(r.mean_solve, 2)});
  }
  server.Stop();

  if (diverged) {
    std::fprintf(stderr, "E12 FAILED: %s\n", divergence.c_str());
    return 1;
  }
  table.PrintMarkdown(std::cout);
  std::printf("\nall %d responses bit-identical to the direct "
              "single-threaded engine\n",
              static_cast<int>(mix.size()) +
                  requests * std::accumulate(client_counts.begin(),
                                             client_counts.end(), 0));

  // ---- the repeated-query (cache) phase ---------------------------------
  const int rep_clients = static_cast<int>(*quick ? 2 : *repeated_clients);
  const int rep_requests =
      static_cast<int>(*quick ? 16 : *repeated_requests);
  const int rep_updates = static_cast<int>(*quick ? 2 : *updates);
  const int update_gap_ms = *quick ? 2 : 20;
  CHECK(rep_clients >= 1 && rep_requests >= 1 && rep_updates >= 1);

  // A fresh catalog — the updater mutates its target graph — behind a
  // fresh server with the response cache armed.
  GraphCatalog catalog2;
  CHECK(catalog2.AddGraph("uni", uni).ok());
  CHECK(catalog2.AddGraph("rmat", rmat).ok());
  CHECK(catalog2.AddGraph("wuni", wuni).ok());

  // All-certified-exact mix: a miss visibly pays a full solve, so the
  // hit-vs-miss latency split is unambiguous. The Zipf-hot item is the
  // updated graph, so every version bump is exercised immediately.
  std::vector<RepeatedItem> rep_mix = {
      {"uni", "core-exact", false, /*updated=*/true, "", {}},
      {"rmat", "core-exact", false, false, "", {}},
      {"wuni", "core-exact", true, false, "", {}},
  };
  for (RepeatedItem& item : rep_mix) {
    const MixItem as_mix{item.graph, item.algo, item.weighted, "", ""};
    item.request_json = BuildRequestJson(as_mix);
  }

  // Script the update batches and mirror them: per version, the expected
  // comparable slice comes from a direct single-threaded engine on a
  // statically built merge of base + batches[0..v) — exactly the overlay
  // identity the serve stack must reproduce byte for byte.
  std::vector<std::string> update_frames;
  {
    DdsRequest exact_request;
    exact_request.algorithm = DdsAlgorithm::kCoreExact;
    const auto slice_of = [&exact_request](DdsEngine& engine) {
      const Result<DdsSolution> solved = engine.Solve(exact_request);
      CHECK(solved.ok()) << solved.status().ToString();
      return DirectSolutionSlice(SolutionJson(solved.value()));
    };
    std::vector<Edge> merged = uni.EdgeList();
    std::set<Edge> present(merged.begin(), merged.end());
    {
      DdsEngine base_engine(uni);
      rep_mix[0].expected.push_back(slice_of(base_engine));  // version 0
      DdsEngine rmat_engine(rmat);
      rep_mix[1].expected.push_back(slice_of(rmat_engine));
      DdsEngine wuni_engine(wuni);
      rep_mix[2].expected.push_back(slice_of(wuni_engine));
    }
    const uint32_t n = uni.NumVertices();
    for (int b = 0; b < rep_updates; ++b) {
      EdgeBatch batch;
      // Deterministic scan for 4 edges not yet present; both sides of
      // the mirror (updater and expectation) see the same batches.
      for (uint32_t k = 0; batch.size() < 4; ++k) {
        const VertexId u = static_cast<VertexId>(
            (37u * static_cast<uint32_t>(b) + 13u * k) % n);
        const VertexId v = static_cast<VertexId>(
            (61u * static_cast<uint32_t>(b) + 29u * k + 1u) % n);
        if (u == v || present.count({u, v}) != 0) continue;
        present.insert({u, v});
        merged.emplace_back(u, v);
        batch.push_back(EdgeOp::Insert(u, v));
      }
      update_frames.push_back(
          "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"" +
          FormatEdgeOps(batch) + "\"}");
      const Digraph snapshot =
          Digraph::FromEdges(n, std::vector<Edge>(merged));
      DdsEngine snapshot_engine(snapshot);
      rep_mix[0].expected.push_back(slice_of(snapshot_engine));
    }
  }

  ServerOptions options2;
  options2.port = 0;
  options2.scheduler.workers = static_cast<int>(*workers);
  options2.scheduler.queue_capacity = static_cast<int>(*queue_capacity);
  options2.scheduler.cache_bytes = static_cast<size_t>(*cache_mb) << 20;
  DdsServer server2(&catalog2, options2);
  const Result<int> started2 = server2.Start();
  CHECK(started2.ok()) << started2.status().ToString();
  const int port2 = started2.value();
  std::printf("\nrepeated-query phase on 127.0.0.1:%d — %d clients x %d "
              "requests, %d interleaved updates, cache %lld MiB\n\n",
              port2, rep_clients, rep_requests, rep_updates,
              static_cast<long long>(*cache_mb));

  std::atomic<int64_t> acked_version{0};
  // Slot rep_clients holds the updater's log (it only uses failed/error).
  std::vector<RepeatedLog> rep_logs(
      static_cast<size_t>(rep_clients) + 1);
  WallTimer rep_wall;
  std::thread updater(RunRepeatedUpdater, port2, std::cref(update_frames),
                      update_gap_ms, &acked_version,
                      &rep_logs[static_cast<size_t>(rep_clients)]);
  {
    std::vector<std::thread> rep_threads;
    rep_threads.reserve(static_cast<size_t>(rep_clients));
    for (int c = 0; c < rep_clients; ++c) {
      const uint64_t client_seed =
          static_cast<uint64_t>(*seed) + 7919 +
          static_cast<uint64_t>(101 * c);
      rep_threads.emplace_back(RunRepeatedClient, port2,
                               std::cref(rep_mix), rep_requests, *zipf_s,
                               client_seed, &acked_version,
                               &rep_logs[static_cast<size_t>(c)]);
    }
    for (std::thread& t : rep_threads) t.join();
  }
  updater.join();
  const double rep_seconds = rep_wall.Seconds();

  // Scrape the fast-path counters off the wire before stopping.
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0,
         cache_invalidations = 0, stat_coalesced = 0, stat_batches = 0,
         stat_batched = 0;
  {
    ServeClient stats_client;
    CHECK(stats_client.Connect("127.0.0.1", port2).ok());
    const Result<std::string> stats =
        stats_client.Call("{\"op\": \"server_stats\"}");
    CHECK(stats.ok()) << stats.status().ToString();
    const std::string& json = stats.value();
    cache_hits = FindJsonNumber(json, "cache_hits").value_or(0);
    cache_misses = FindJsonNumber(json, "cache_misses").value_or(0);
    cache_evictions = FindJsonNumber(json, "cache_evictions").value_or(0);
    cache_invalidations =
        FindJsonNumber(json, "cache_invalidations").value_or(0);
    stat_coalesced = FindJsonNumber(json, "coalesced").value_or(0);
    stat_batches = FindJsonNumber(json, "batches").value_or(0);
    stat_batched = FindJsonNumber(json, "batched").value_or(0);
  }
  server2.Stop();

  for (const RepeatedLog& log : rep_logs) {
    if (log.failed) {
      std::fprintf(stderr, "E12 repeated phase FAILED: %s\n",
                   log.error.c_str());
      return 1;
    }
  }
  {
    const CatalogEntry* entry = catalog2.Find("uni");
    CHECK(entry != nullptr);
    CHECK(entry->version() == rep_updates)
        << "updater applied " << entry->version() << " of " << rep_updates;
  }

  std::vector<double> hit_ms, miss_ms, coalesced_ms;
  for (const RepeatedLog& log : rep_logs) {
    hit_ms.insert(hit_ms.end(), log.hit_ms.begin(), log.hit_ms.end());
    miss_ms.insert(miss_ms.end(), log.miss_ms.begin(), log.miss_ms.end());
    coalesced_ms.insert(coalesced_ms.end(), log.coalesced_ms.begin(),
                        log.coalesced_ms.end());
  }
  const int rep_total = static_cast<int>(hit_ms.size() + miss_ms.size() +
                                         coalesced_ms.size());
  CHECK(rep_total == rep_clients * rep_requests);
  CHECK(!hit_ms.empty() && !miss_ms.empty())
      << "degenerate phase: " << hit_ms.size() << " hits, "
      << miss_ms.size() << " misses";
  const double hit_rate = static_cast<double>(hit_ms.size()) / rep_total;
  const double hit_p50 = Quantile(hit_ms, 0.5);
  const double hit_p99 = Quantile(hit_ms, 0.99);
  const double miss_p50 = Quantile(miss_ms, 0.5);
  const double miss_p99 = Quantile(miss_ms, 0.99);
  const double p50_speedup = hit_p50 > 0 ? miss_p50 / hit_p50 : 0;

  Table rep_table({"clients", "requests", "hit_rate", "hit_p50_ms",
                   "hit_p99_ms", "miss_p50_ms", "miss_p99_ms",
                   "p50_speedup", "coalesced"});
  rep_table.AddRow({std::to_string(rep_clients), std::to_string(rep_total),
                    FormatDouble(hit_rate, 3), FormatDouble(hit_p50, 4),
                    FormatDouble(hit_p99, 4), FormatDouble(miss_p50, 3),
                    FormatDouble(miss_p99, 3), FormatDouble(p50_speedup, 1),
                    std::to_string(coalesced_ms.size())});
  rep_table.PrintMarkdown(std::cout);
  std::printf("\nrepeated phase: all %d responses version-fresh and "
              "bit-identical to per-version direct solves (%d updates "
              "interleaved)\n",
              rep_total, rep_updates);

  // The headline gate (1-CPU-valid, unlike the qps ladder): a cache hit
  // must be at least 20x cheaper than the solve it memoizes. Quick mode
  // skips it — smoke sample sizes make percentiles meaningless.
  if (!*quick && p50_speedup < 20.0) {
    std::fprintf(stderr,
                 "E12 FAILED: cache-hit p50 %.4f ms is only %.1fx below "
                 "cache-miss p50 %.3f ms (need >= 20x)\n",
                 hit_p50, p50_speedup, miss_p50);
    return 1;
  }

  // ---- the restart phase (--restart_mid_run) ----------------------------
  // Self-healing clients ride CallRetrying through a real server bounce:
  // the server is stopped and a fresh instance started on the SAME port
  // while every client is parked at its midpoint, so each one's second
  // half must reconnect. 100% of responses (before and after) are
  // bit-verified; any retry exhaustion or divergence fails the run.
  int rs_clients = 0, rs_verified = 0;
  int64_t rs_reconnects = 0, rs_retries = 0;
  double rs_seconds = 0;
  if (*restart_mid_run) {
    rs_clients = *quick ? 2 : 4;
    const int rs_requests = *quick ? 8 : 32;
    ServerOptions options3;
    options3.port = 0;
    options3.scheduler.workers = static_cast<int>(*workers);
    options3.scheduler.queue_capacity = static_cast<int>(*queue_capacity);
    auto server3 = std::make_unique<DdsServer>(&catalog, options3);
    const Result<int> started3 = server3->Start();
    CHECK(started3.ok()) << started3.status().ToString();
    const int port3 = started3.value();
    std::printf("\nrestart phase on 127.0.0.1:%d — %d self-healing clients "
                "x %d requests, server bounced at the midpoint\n",
                port3, rs_clients, rs_requests);

    std::atomic<int> at_midpoint{0};
    std::atomic<bool> restarted{false};
    std::vector<RetryLog> retry_logs(static_cast<size_t>(rs_clients));
    WallTimer rs_wall;
    std::vector<std::thread> rs_threads;
    rs_threads.reserve(static_cast<size_t>(rs_clients));
    for (int c = 0; c < rs_clients; ++c) {
      const uint64_t client_seed = static_cast<uint64_t>(*seed) + 31337 +
                                   static_cast<uint64_t>(211 * c);
      rs_threads.emplace_back(RunRetryingClient, port3, std::cref(mix),
                              rs_requests, *zipf_s, client_seed,
                              &at_midpoint, &restarted,
                              &retry_logs[static_cast<size_t>(c)]);
    }
    while (at_midpoint.load(std::memory_order_acquire) < rs_clients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server3->Stop();
    server3.reset();
    // Rebind the SAME port. The dead server's socket can linger briefly,
    // so the bind is retried rather than assumed.
    ServerOptions options4 = options3;
    options4.port = port3;
    Result<int> restarted_port = Status::Unavailable("not yet restarted");
    for (int attempt = 0; attempt < 100; ++attempt) {
      server3 = std::make_unique<DdsServer>(&catalog, options4);
      restarted_port = server3->Start();
      if (restarted_port.ok()) break;
      server3.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    CHECK(restarted_port.ok())
        << "could not rebind port " << port3 << ": "
        << restarted_port.status().ToString();
    restarted.store(true, std::memory_order_release);
    for (std::thread& t : rs_threads) t.join();
    rs_seconds = rs_wall.Seconds();
    server3->Stop();

    for (const RetryLog& log : retry_logs) {
      if (log.failed) {
        std::fprintf(stderr, "E12 restart phase FAILED: %s\n",
                     log.error.c_str());
        return 1;
      }
      CHECK(log.reconnects >= 1)
          << "a client crossed the restart without reconnecting";
      rs_verified += log.verified;
      rs_reconnects += log.reconnects;
      rs_retries += log.retries;
    }
    CHECK(rs_verified == rs_clients * rs_requests);
    std::printf("restart phase: all %d responses bit-verified across the "
                "bounce (%lld reconnects, %lld retries)\n",
                rs_verified, static_cast<long long>(rs_reconnects),
                static_cast<long long>(rs_retries));
  }

  if (!json_out->empty()) {
    std::ostringstream out;
    out << "{\n  \"experiment\": \"e12_serve\",\n";
    out << "  \"quick\": " << (*quick ? "true" : "false") << ",\n";
    out << "  \"zipf_s\": " << FormatDouble(*zipf_s, 4) << ",\n";
    out << "  \"workers\": " << *workers << ",\n";
    out << "  \"queue_capacity\": " << *queue_capacity << ",\n";
    out << "  \"requests_per_client\": " << requests << ",\n";
    out << "  \"mix\": [";
    for (size_t i = 0; i < mix.size(); ++i) {
      if (i) out << ", ";
      out << "{\"graph\": \"" << mix[i].graph << "\", \"algo\": \""
          << mix[i].algo << "\"}";
    }
    out << "],\n  \"rungs\": [\n";
    for (size_t i = 0; i < rungs.size(); ++i) {
      const RungResult& r = rungs[i];
      out << "    {\"clients\": " << r.clients
          << ", \"requests\": " << r.total
          << ", \"seconds\": " << FormatDouble(r.seconds, 4)
          << ", \"qps\": " << FormatDouble(r.qps, 2)
          << ", \"p50_ms\": " << FormatDouble(r.p50, 3)
          << ", \"p99_ms\": " << FormatDouble(r.p99, 3)
          << ", \"mean_ms\": " << FormatDouble(r.mean, 3)
          << ", \"mean_queue_ms\": " << FormatDouble(r.mean_queue, 3)
          << ", \"p99_queue_ms\": " << FormatDouble(r.p99_queue, 3)
          << ", \"mean_solve_ms\": " << FormatDouble(r.mean_solve, 3)
          << ", \"verified\": " << r.total << "}"
          << (i + 1 < rungs.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    out << "  \"repeated\": {\"clients\": " << rep_clients
        << ", \"requests\": " << rep_total
        << ", \"updates\": " << rep_updates
        << ", \"seconds\": " << FormatDouble(rep_seconds, 4)
        << ", \"cache_mb\": " << *cache_mb
        << ",\n    \"hits\": " << hit_ms.size()
        << ", \"misses\": " << miss_ms.size()
        << ", \"coalesced\": " << coalesced_ms.size()
        << ", \"hit_rate\": " << FormatDouble(hit_rate, 4)
        << ",\n    \"hit_p50_ms\": " << FormatDouble(hit_p50, 4)
        << ", \"hit_p99_ms\": " << FormatDouble(hit_p99, 4)
        << ", \"miss_p50_ms\": " << FormatDouble(miss_p50, 3)
        << ", \"miss_p99_ms\": " << FormatDouble(miss_p99, 3)
        << ", \"p50_speedup\": " << FormatDouble(p50_speedup, 1)
        << ",\n    \"cache_hits\": " << FormatDouble(cache_hits, 0)
        << ", \"cache_misses\": " << FormatDouble(cache_misses, 0)
        << ", \"cache_evictions\": " << FormatDouble(cache_evictions, 0)
        << ", \"cache_invalidations\": "
        << FormatDouble(cache_invalidations, 0)
        << ", \"scheduler_coalesced\": " << FormatDouble(stat_coalesced, 0)
        << ", \"batches\": " << FormatDouble(stat_batches, 0)
        << ", \"batched\": " << FormatDouble(stat_batched, 0)
        << ",\n    \"verified\": " << rep_total << ", \"stale\": 0}";
    if (*restart_mid_run) {
      out << ",\n  \"restart\": {\"clients\": " << rs_clients
          << ", \"verified\": " << rs_verified
          << ", \"reconnects\": " << rs_reconnects
          << ", \"retries\": " << rs_retries
          << ", \"seconds\": " << FormatDouble(rs_seconds, 4) << "}";
    }
    out << "\n}\n";
    std::ofstream file(*json_out);
    file << out.str();
    if (!file) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", json_out->c_str());
      return 1;
    }
    std::cout << "wrote " << *json_out << "\n";
  }
  return 0;
}

}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) {
  return ddsgraph::bench::Main(argc, argv);
}
