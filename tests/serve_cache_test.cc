// The serving fast paths of DESIGN.md §15, scheduler-level and end to
// end over TCP: response-cache hits bit-identical to direct solves,
// version-keyed invalidation on update (no stale answer after an ack),
// single-flight coalescing, same-graph batching, the health verb, and
// the update-vs-cached-solve-vs-stats race (TSan CI runs this suite).

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "stream/dynamic_digraph.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// Blocks the solve that carries it inside its first progress callback
// until Release() — pins a scheduler worker mid-solve deterministically.
// (Progress-carrying requests are uncachable by design, so the gated
// request itself never interacts with the cache; it just occupies the
// worker while other submissions pile up behind it.)
struct SolveGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  DdsProgressCallback AsProgress() {
    return [this](const DdsProgress&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        entered = true;
      }
      cv.notify_all();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return released; });
      return true;
    };
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

struct ResponseCollector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServeResponse> responses;

  ServeCallback AsCallback() {
    return [this](ServeResponse response) {
      {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      }
      cv.notify_all();
    };
  }
  void WaitCount(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this, n] { return responses.size() >= n; });
  }
};

// The schedule-independent prefix of a solution's JSON — the same slice
// SolutionSliceForCompare extracts from a wire response.
std::string SliceOf(const DdsSolution& solution) {
  const std::string json = SolutionJson(solution);
  const size_t stats = json.find(", \"stats\"");
  EXPECT_NE(stats, std::string::npos) << json;
  return json.substr(0, stats);
}

ServeRequest MakeRequest(const std::string& graph, DdsAlgorithm algorithm) {
  ServeRequest request;
  request.graph = graph;
  request.request.algorithm = algorithm;
  return request;
}

// SchedulerOptions with the cache armed (the field defaults keep it off).
SchedulerOptions CachedOptions(int workers, int queue_capacity) {
  SchedulerOptions options;
  options.workers = workers;
  options.queue_capacity = queue_capacity;
  options.cache_bytes = 1u << 20;
  return options;
}

// ----------------------------------------------------- scheduler + cache

TEST(ServeCacheTest, HitIsBitIdenticalToTheDirectSolve) {
  const Digraph g = UniformDigraph(60, 300, 3);
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", g).ok());
  RequestScheduler scheduler(&catalog, CachedOptions(2, 16));
  scheduler.Start();

  ResponseCollector first, second;
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          first.AsCallback())
                  .ok());
  first.WaitCount(1);
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          second.AsCallback())
                  .ok());
  // A hit answers synchronously inside Submit — no WaitCount needed.
  ASSERT_EQ(second.responses.size(), 1u);
  scheduler.Stop();

  const ServeResponse& miss = first.responses[0];
  const ServeResponse& hit = second.responses[0];
  ASSERT_TRUE(miss.status.ok());
  ASSERT_TRUE(hit.status.ok());
  EXPECT_FALSE(miss.solution.stats.cache_hit);
  EXPECT_TRUE(hit.solution.stats.cache_hit);
  EXPECT_FALSE(hit.solution.stats.coalesced);
  EXPECT_EQ(miss.version, 0);
  EXPECT_EQ(hit.version, 0);

  DdsEngine direct(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> expected = direct.Solve(request);
  ASSERT_TRUE(expected.ok());
  const std::string want = SliceOf(expected.value());
  EXPECT_EQ(SliceOf(miss.solution), want);
  EXPECT_EQ(SliceOf(hit.solution), want);

  // The hit's latency split is zeroed (it cost a lookup, not a
  // queue+solve).
  EXPECT_DOUBLE_EQ(hit.solution.stats.queue_ms, 0);
  EXPECT_DOUBLE_EQ(hit.solution.stats.solve_ms, 0);

  // One engine solve served both requests; the hit never reached the
  // accepted/served path.
  const CatalogEntry* entry = catalog.Find("uni");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->num_solves(), 1);
  EXPECT_EQ(scheduler.accepted(), 1);
  EXPECT_EQ(scheduler.served(), 1);
  const ResponseCacheCounters counters = scheduler.cache_counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.entries, 1);
}

TEST(ServeCacheTest, UpdateInvalidatesAndNewVersionSolvesFresh) {
  const uint32_t n = 40;
  const Digraph g = UniformDigraph(n, 160, 3);
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", g).ok());
  RequestScheduler scheduler(&catalog, CachedOptions(1, 16));
  scheduler.Start();

  ResponseCollector before;
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          before.AsCallback())
                  .ok());
  before.WaitCount(1);
  EXPECT_EQ(before.responses[0].version, 0);

  // Plant a dense block the base graph does not have, exactly like the
  // wire-level update path would.
  CatalogEntry* entry = catalog.Find("uni");
  ASSERT_NE(entry, nullptr);
  EdgeBatch block;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 30; v < 34; ++v) block.push_back(EdgeOp::Insert(u, v));
  }
  const auto applied = entry->ApplyEdgeBatch(block);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().version, 1);
  EXPECT_EQ(entry->cached_version(), 1);  // the lock-free mirror moved
  EXPECT_EQ(scheduler.InvalidateGraph("uni"), 1);

  // The next identical request must miss (new version in the key) and
  // solve the updated graph — equal to a direct engine on a statically
  // rebuilt merge, the PR 8 overlay-identity contract.
  ResponseCollector after;
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          after.AsCallback())
                  .ok());
  after.WaitCount(1);
  const ServeResponse& fresh = after.responses[0];
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.solution.stats.cache_hit);
  EXPECT_EQ(fresh.version, 1);

  std::vector<Edge> merged = g.EdgeList();
  for (const EdgeOp& op : block) merged.emplace_back(op.from, op.to);
  const Digraph updated = Digraph::FromEdges(n, std::move(merged));
  DdsEngine direct(updated);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> expected = direct.Solve(request);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(SliceOf(fresh.solution), SliceOf(expected.value()));
  // The stale version-0 slice must differ — the planted block raises the
  // optimum, so serving it would have been an observable wrong answer.
  EXPECT_NE(SliceOf(before.responses[0].solution),
            SliceOf(expected.value()));

  // And the new version is now cached: a third request hits at v1.
  ResponseCollector third;
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          third.AsCallback())
                  .ok());
  ASSERT_EQ(third.responses.size(), 1u);
  EXPECT_TRUE(third.responses[0].solution.stats.cache_hit);
  EXPECT_EQ(third.responses[0].version, 1);
  EXPECT_EQ(SliceOf(third.responses[0].solution),
            SliceOf(expected.value()));
  scheduler.Stop();
}

TEST(ServeCacheTest, SingleFlightCoalescesIdenticalRequests) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("pin", UniformDigraph(30, 150, 5)).ok());
  const Digraph g = UniformDigraph(60, 300, 3);
  ASSERT_TRUE(catalog.AddGraph("uni", g).ok());
  // One worker so the gated solve on "pin" blocks everything behind it.
  RequestScheduler scheduler(&catalog, CachedOptions(1, 16));
  scheduler.Start();

  SolveGate gate;
  ResponseCollector pin_done;
  ServeRequest gated = MakeRequest("pin", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  ASSERT_TRUE(scheduler.Submit(std::move(gated), pin_done.AsCallback()).ok());
  gate.WaitEntered();

  // Three identical cachable requests: the first takes the queue slot,
  // the other two attach to its flight.
  ResponseCollector collector;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                            collector.AsCallback())
                    .ok());
  }
  EXPECT_EQ(scheduler.coalesced(), 2);
  EXPECT_EQ(scheduler.queued(), 1);  // waiters hold no queue slots

  gate.Release();
  collector.WaitCount(3);
  scheduler.Stop();

  DdsEngine direct(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> expected = direct.Solve(request);
  ASSERT_TRUE(expected.ok());
  const std::string want = SliceOf(expected.value());

  int leaders = 0, followers = 0;
  for (const ServeResponse& r : collector.responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(SliceOf(r.solution), want);  // identical responses for all
    EXPECT_FALSE(r.solution.stats.cache_hit);
    EXPECT_EQ(r.version, 0);
    if (r.solution.stats.coalesced) {
      ++followers;
    } else {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(followers, 2);

  // One solve fanned out to three waiters.
  const CatalogEntry* entry = catalog.Find("uni");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->num_solves(), 1);
  EXPECT_EQ(scheduler.accepted(), 4);  // pin + leader + 2 waiters
  EXPECT_EQ(scheduler.served(), 4);
}

TEST(ServeBatchingTest, SameGraphFlightsRunAsOneGroup) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("pin", UniformDigraph(30, 150, 5)).ok());
  const Digraph a = UniformDigraph(50, 250, 3);
  const Digraph b = UniformDigraph(50, 250, 11);
  ASSERT_TRUE(catalog.AddGraph("a", a).ok());
  ASSERT_TRUE(catalog.AddGraph("b", b).ok());
  // Batching needs no cache; distinct algorithms per graph keep
  // single-flight out of the picture even with one enabled.
  SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  RequestScheduler scheduler(&catalog, options);
  scheduler.Start();

  SolveGate gate;
  ResponseCollector collector;
  ServeRequest gated = MakeRequest("pin", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  ASSERT_TRUE(scheduler.Submit(std::move(gated), collector.AsCallback()).ok());
  gate.WaitEntered();

  // Interleave two graphs; the worker should reassemble per-graph groups.
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("a", DdsAlgorithm::kPeelApprox),
                          collector.AsCallback())
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("b", DdsAlgorithm::kPeelApprox),
                          collector.AsCallback())
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("a", DdsAlgorithm::kCoreApprox),
                          collector.AsCallback())
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("b", DdsAlgorithm::kCoreApprox),
                          collector.AsCallback())
                  .ok());
  gate.Release();
  collector.WaitCount(5);
  scheduler.Stop();

  EXPECT_EQ(scheduler.batches(), 2);  // {a,a} and {b,b}
  EXPECT_EQ(scheduler.batched(), 4);
  EXPECT_EQ(scheduler.served(), 5);

  // Grouping must not change any answer.
  for (const ServeResponse& r : collector.responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  const std::vector<std::pair<const Digraph*, DdsAlgorithm>> expected_set =
      {{&a, DdsAlgorithm::kPeelApprox},
       {&a, DdsAlgorithm::kCoreApprox},
       {&b, DdsAlgorithm::kPeelApprox},
       {&b, DdsAlgorithm::kCoreApprox}};
  for (const auto& [graph, algo] : expected_set) {
    DdsEngine direct(*graph);
    DdsRequest request;
    request.algorithm = algo;
    const Result<DdsSolution> expected = direct.Solve(request);
    ASSERT_TRUE(expected.ok());
    const std::string want = SliceOf(expected.value());
    int matches = 0;
    for (const ServeResponse& r : collector.responses) {
      if (SliceOf(r.solution) == want) ++matches;
    }
    EXPECT_GE(matches, 1) << "no response matched a direct solve";
  }
}

// ------------------------------------------------------------ wire level

class ServeCacheServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uni_ = UniformDigraph(40, 160, 3);
    ASSERT_TRUE(catalog_.AddGraph("uni", uni_).ok());
  }

  void StartAndConnect(ServeClient* client, size_t cache_bytes) {
    ServerOptions options;
    options.scheduler.cache_bytes = cache_bytes;
    server_ = std::make_unique<DdsServer>(&catalog_, options);
    const Result<int> port = server_->Start();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    ASSERT_TRUE(client->Connect("127.0.0.1", port.value()).ok());
  }

  std::string Call(ServeClient* client, const std::string& request) {
    const Result<std::string> response = client->Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : std::string();
  }

  Digraph uni_;
  GraphCatalog catalog_;
  std::unique_ptr<DdsServer> server_;
};

TEST_F(ServeCacheServerTest, CacheHitsInvalidationAndStatsOverTcp) {
  ServeClient client;
  StartAndConnect(&client, 1u << 20);
  const std::string solve = "{\"graph\": \"uni\", \"algo\": \"core-exact\"}";

  const std::string miss = Call(&client, solve);
  ASSERT_EQ(FindJsonString(miss, "status").value_or(""), "ok") << miss;
  EXPECT_NE(miss.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(miss.find("\"version\": 0"), std::string::npos);

  const std::string hit = Call(&client, solve);
  EXPECT_NE(hit.find("\"cache_hit\": true"), std::string::npos) << hit;
  // Bit-identical to the solve it memoizes, through the full wire stack.
  const Result<std::string> miss_slice = SolutionSliceForCompare(miss);
  const Result<std::string> hit_slice = SolutionSliceForCompare(hit);
  ASSERT_TRUE(miss_slice.ok() && hit_slice.ok());
  EXPECT_EQ(miss_slice.value(), hit_slice.value());

  // An acked update must never be followed by the old answer.
  const std::string update = Call(
      &client,
      "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"+0 30, +0 31, "
      "+1 30, +1 31\"}");
  ASSERT_EQ(FindJsonString(update, "status").value_or(""), "ok") << update;

  const std::string fresh = Call(&client, solve);
  EXPECT_NE(fresh.find("\"cache_hit\": false"), std::string::npos) << fresh;
  EXPECT_NE(fresh.find("\"version\": 1"), std::string::npos) << fresh;

  const std::string stats = Call(&client, "{\"op\": \"server_stats\"}");
  EXPECT_EQ(FindJsonNumber(stats, "cache_hits").value_or(-1), 1) << stats;
  EXPECT_EQ(FindJsonNumber(stats, "cache_misses").value_or(-1), 2);
  EXPECT_GE(FindJsonNumber(stats, "cache_invalidations").value_or(-1), 1);
  EXPECT_EQ(FindJsonNumber(stats, "cache_entries").value_or(-1), 1);
  EXPECT_NE(stats.find("\"cache_enabled\": true"), std::string::npos);
  server_->Stop();
}

TEST_F(ServeCacheServerTest, HealthVerbAndItsStrictSchema) {
  ServeClient client;
  StartAndConnect(&client, /*cache_bytes=*/0);

  const std::string health =
      Call(&client, "{\"op\": \"health\", \"id\": 5}");
  EXPECT_EQ(FindJsonString(health, "status").value_or(""), "ok") << health;
  EXPECT_EQ(FindJsonString(health, "op").value_or(""), "health");
  EXPECT_NE(health.find("\"healthy\": true"), std::string::npos);
  EXPECT_NE(health.find("\"accepting\": true"), std::string::npos);
  EXPECT_EQ(FindJsonNumber(health, "num_graphs").value_or(-1), 1);
  EXPECT_EQ(FindJsonNumber(health, "queued").value_or(-1), 0);
  EXPECT_NE(health.find("\"id\": 5"), std::string::npos);

  // Strict per-verb schema: health takes no solve keys.
  for (const char* bad :
       {"{\"op\": \"health\", \"graph\": \"uni\"}",
        "{\"op\": \"health\", \"algo\": \"core-exact\"}",
        "{\"op\": \"health\", \"deadline_ms\": 5}",
        "{\"op\": \"health\", \"edges\": \"+1 2\"}"}) {
    const std::string r = Call(&client, bad);
    EXPECT_EQ(FindJsonString(r, "code").value_or(""), "INVALID_ARGUMENT")
        << bad;
  }
  // The unknown-op message now names the verb.
  const std::string unknown = Call(&client, "{\"op\": \"helth\"}");
  EXPECT_NE(unknown.find("health"), std::string::npos) << unknown;
  server_->Stop();
}

// The §15 race: an updater mutating a graph, a solver issuing identical
// cachable requests (hits, misses and coalesces all possible), and an
// observer polling stats/health — all over concurrent connections. The
// staleness proof: the solver snapshots the highest *acked* update
// version before each solve and asserts the response's version is at
// least that — a cached stale answer would violate it. Run under TSan
// in CI.
TEST_F(ServeCacheServerTest, UpdateVsCachedSolveVsStatsRace) {
  constexpr int kUpdates = 10;
  constexpr int kSolves = 24;

  // The updater's batches are deterministic, so they are scripted up
  // front and replayed on a mirror overlay: expected[v] is a direct
  // single-threaded engine solve of the logical graph at version v —
  // the answer any response naming version v must carry byte for byte,
  // whether it was a cache hit or a fresh solve.
  std::vector<EdgeBatch> batches;
  Rng rng(23);
  for (int i = 0; i < kUpdates; ++i) {
    EdgeBatch batch;
    for (int k = 0; k < 4; ++k) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(40));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(40));
      if (u == v) continue;
      batch.push_back(rng.NextBounded(4) == 0 ? EdgeOp::Delete(u, v)
                                              : EdgeOp::Insert(u, v));
    }
    if (batch.empty()) batch.push_back(EdgeOp::Insert(0, 1));
    batches.push_back(std::move(batch));
  }
  DdsRequest approx;
  approx.algorithm = DdsAlgorithm::kCoreApprox;
  std::vector<std::string> expected;
  DynamicDigraph mirror(uni_);
  for (int version = 0; version <= kUpdates; ++version) {
    if (version > 0) mirror.ApplyBatch(batches[version - 1]);
    const Result<DdsSolution> direct =
        DdsEngine(mirror.Snapshot()).Solve(approx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected.push_back(SliceOf(direct.value()));
  }

  ServerOptions options;
  options.scheduler.workers = 2;
  options.scheduler.cache_bytes = 1u << 20;
  server_ = std::make_unique<DdsServer>(&catalog_, options);
  const Result<int> port = server_->Start();
  ASSERT_TRUE(port.ok());

  std::atomic<int64_t> acked_version{0};
  std::vector<std::string> failures(3);

  std::thread updater([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", port.value()).ok()) {
      failures[0] = "connect";
      return;
    }
    for (const EdgeBatch& batch : batches) {
      const Result<std::string> r = client.Call(
          "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"" +
          FormatEdgeOps(batch) + "\"}");
      if (!r.ok() ||
          FindJsonString(r.value(), "status").value_or("") != "ok") {
        failures[0] = r.ok() ? r.value() : r.status().ToString();
        return;
      }
      const int64_t version = static_cast<int64_t>(
          FindJsonNumber(r.value(), "version").value_or(0));
      // The ack is the linearization point clients reason from.
      acked_version.store(version, std::memory_order_release);
    }
  });
  std::thread solver([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", port.value()).ok()) {
      failures[1] = "connect";
      return;
    }
    for (int i = 0; i < kSolves; ++i) {
      const int64_t floor = acked_version.load(std::memory_order_acquire);
      const Result<std::string> r =
          client.Call("{\"graph\": \"uni\", \"algo\": \"core-approx\"}");
      if (!r.ok() ||
          FindJsonString(r.value(), "status").value_or("") != "ok") {
        failures[1] = r.ok() ? r.value() : r.status().ToString();
        return;
      }
      const int64_t version = static_cast<int64_t>(
          FindJsonNumber(r.value(), "version").value_or(-1));
      if (version < floor) {
        failures[1] = "stale response: version " +
                      std::to_string(version) + " after ack " +
                      std::to_string(floor);
        return;
      }
      if (version > kUpdates) {
        failures[1] = "version out of range: " + std::to_string(version);
        return;
      }
      const Result<std::string> slice = SolutionSliceForCompare(r.value());
      if (!slice.ok() ||
          slice.value() != expected[static_cast<size_t>(version)]) {
        failures[1] = "DIVERGENCE at version " + std::to_string(version) +
                      "\n  expected: " +
                      expected[static_cast<size_t>(version)] +
                      "\n  served:   " +
                      (slice.ok() ? slice.value()
                                  : slice.status().ToString());
        return;
      }
    }
  });
  std::thread observer([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", port.value()).ok()) {
      failures[2] = "connect";
      return;
    }
    for (int i = 0; i < 12; ++i) {
      const std::string op = i % 2 == 0 ? "server_stats" : "health";
      const Result<std::string> r = client.Call("{\"op\": \"" + op + "\"}");
      if (!r.ok() ||
          FindJsonString(r.value(), "status").value_or("") != "ok") {
        failures[2] = r.ok() ? r.value() : r.status().ToString();
        return;
      }
    }
  });
  updater.join();
  solver.join();
  observer.join();
  server_->Stop();
  EXPECT_EQ(failures[0], "");
  EXPECT_EQ(failures[1], "");
  EXPECT_EQ(failures[2], "");

  const CatalogEntry* entry = catalog_.Find("uni");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version(), kUpdates);
  EXPECT_EQ(entry->cached_version(), kUpdates);
}

}  // namespace
}  // namespace ddsgraph
