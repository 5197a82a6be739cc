// Golden bytes of every JSON producer on the wire and the CLI: the six
// protocol response builders and SolutionJson, with and without labels.
// Clients read these bytes (the load client finds fields by their
// `"key": ` needle, ddsbench's oracle compares solution slices byte for
// byte), so a failure here is a wire-format change, not a test to
// re-record.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace ddsgraph {
namespace {

// Every field set, to distinct values: a density with no short decimal
// form (the %.17g round trip), timings that the 6-decimal format rounds,
// and both vertex lists non-empty.
DdsSolution FullSolution() {
  DdsSolution sol;
  sol.pair.s = {0, 2, 5};
  sol.pair.t = {1, 3};
  sol.density = 6.0 / 2.449489742783178;
  sol.pair_edges = 6;
  sol.lower_bound = 0.1 + 0.2;
  sol.upper_bound = 26.75;
  sol.interrupted = true;
  sol.stats.ratios_probed = 11;
  sol.stats.flow_networks_built = 12;
  sol.stats.flow_networks_reused = 13;
  sol.stats.warm_start_augmentations = 14;
  sol.stats.arcs_scanned = 123456789012;
  sol.stats.global_relabels = 0;
  sol.stats.flow_solves_dinic = 25;
  sol.stats.flow_solves_push_relabel = 0;
  sol.stats.binary_search_iters = 16;
  sol.stats.max_network_nodes = 17;
  sol.stats.intervals_pruned = 18;
  sol.stats.prior_engine_solves = 19;
  sol.stats.queue_ms = 0.125;
  sol.stats.solve_ms = 3.14159265;
  sol.stats.cache_hit = true;
  sol.stats.coalesced = false;
  sol.stats.seconds = 0.0041234567;
  return sol;
}

TEST(JsonGoldenTest, SolutionJsonWithoutLabels) {
  EXPECT_EQ(SolutionJson(FullSolution()),
      R"({"density": 2.4494897427831783, "pair_edges": 6, "s_size": 3, )"
      R"("t_size": 2, "s": [0,2,5], "t": [1,3], )"
      R"("lower_bound": 0.30000000000000004, "upper_bound": 26.75, )"
      R"("interrupted": true, "stats": {"ratios_probed": 11, )"
      R"("flow_networks_built": 12, "flow_networks_reused": 13, )"
      R"("warm_start_augmentations": 14, "arcs_scanned": 123456789012, )"
      R"("global_relabels": 0, "flow_solves_dinic": 25, )"
      R"("flow_solves_push_relabel": 0, "binary_search_iters": 16, )"
      R"("max_network_nodes": 17, "intervals_pruned": 18, )"
      R"("prior_engine_solves": 19, "queue_ms": 0.125, )"
      R"("solve_ms": 3.141593, "cache_hit": true, "coalesced": false, )"
      R"("seconds": 0.004123}})");
}

TEST(JsonGoldenTest, SolutionJsonWithLabels) {
  EXPECT_EQ(SolutionJson(FullSolution(), {100, 101, 102, 103, 104, 105}),
      R"({"density": 2.4494897427831783, "pair_edges": 6, "s_size": 3, )"
      R"("t_size": 2, "s": [100,102,105], "t": [101,103], )"
      R"("lower_bound": 0.30000000000000004, "upper_bound": 26.75, )"
      R"("interrupted": true, "stats": {"ratios_probed": 11, )"
      R"("flow_networks_built": 12, "flow_networks_reused": 13, )"
      R"("warm_start_augmentations": 14, "arcs_scanned": 123456789012, )"
      R"("global_relabels": 0, "flow_solves_dinic": 25, )"
      R"("flow_solves_push_relabel": 0, "binary_search_iters": 16, )"
      R"("max_network_nodes": 17, "intervals_pruned": 18, )"
      R"("prior_engine_solves": 19, "queue_ms": 0.125, )"
      R"("solve_ms": 3.141593, "cache_hit": true, "coalesced": false, )"
      R"("seconds": 0.004123}})");
}

TEST(JsonGoldenTest, SolutionJsonOfAnEmptySolution) {
  EXPECT_EQ(SolutionJson(DdsSolution{}),
      R"({"density": 0, "pair_edges": 0, "s_size": 0, "t_size": 0, )"
      R"("s": [], "t": [], "lower_bound": 0, "upper_bound": 0, )"
      R"("interrupted": false, "stats": {"ratios_probed": 0, )"
      R"("flow_networks_built": 0, "flow_networks_reused": 0, )"
      R"("warm_start_augmentations": 0, "arcs_scanned": 0, )"
      R"("global_relabels": 0, "flow_solves_dinic": 0, )"
      R"("flow_solves_push_relabel": 0, "binary_search_iters": 0, )"
      R"("max_network_nodes": 0, "intervals_pruned": 0, )"
      R"("prior_engine_solves": 0, "queue_ms": 0, "solve_ms": 0, )"
      R"("cache_hit": false, "coalesced": false, "seconds": 0}})");
}

// A two-entry catalog, one of each weight flavor, in name order.
class JsonGoldenCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddGraph("a-uni", UniformDigraph(20, 80, 1)).ok());
    ASSERT_TRUE(catalog_
                    .AddGraph("b-\"w\"", WeightedDigraph::FromDigraph(
                                             UniformDigraph(12, 30, 2)))
                    .ok());
  }
  GraphCatalog catalog_;
};

TEST_F(JsonGoldenCatalogTest, OkResponse) {
  WireRequest wire;
  wire.id_raw = "\"req-7\"";
  wire.graph = "b-\"w\"";
  wire.algo = "core-exact";
  ServeResponse response;
  response.entry = catalog_.Find("b-\"w\"");
  response.solution.stats.queue_ms = 0.5;
  response.solution.stats.solve_ms = 12.3456789;
  response.version = 3;
  response.solution.stats.coalesced = true;
  EXPECT_EQ(OkResponseJson(wire, response, SolutionJson(FullSolution())),
      R"({"id": "req-7", "status": "ok", "graph": "b-\"w\"", )"
      R"("algo": "core-exact", "weighted": true, "queue_ms": 0.5, )"
      R"("solve_ms": 12.345679, "version": 3, "cache_hit": false, )"
      R"("coalesced": true, "solution": {"density": 2.4494897427831783, )"
      R"("pair_edges": 6, "s_size": 3, "t_size": 2, "s": [0,2,5], )"
      R"("t": [1,3], "lower_bound": 0.30000000000000004, )"
      R"("upper_bound": 26.75, "interrupted": true, )"
      R"("stats": {"ratios_probed": 11, "flow_networks_built": 12, )"
      R"("flow_networks_reused": 13, "warm_start_augmentations": 14, )"
      R"("arcs_scanned": 123456789012, "global_relabels": 0, )"
      R"("flow_solves_dinic": 25, "flow_solves_push_relabel": 0, )"
      R"("binary_search_iters": 16, "max_network_nodes": 17, )"
      R"("intervals_pruned": 18, "prior_engine_solves": 19, )"
      R"("queue_ms": 0.125, "solve_ms": 3.141593, "cache_hit": true, )"
      R"("coalesced": false, "seconds": 0.004123}}})");
}

TEST_F(JsonGoldenCatalogTest, OkResponseWithoutIdOrEntry) {
  WireRequest wire;
  wire.graph = "tab\there";
  ServeResponse response;
  response.solution.stats.cache_hit = true;
  EXPECT_EQ(OkResponseJson(wire, response, "{}"),
      R"({"id": null, "status": "ok", "graph": "tab\there", )"
      R"("algo": "core-exact", "weighted": false, "queue_ms": 0, )"
      R"("solve_ms": 0, "version": 0, "cache_hit": true, )"
      R"("coalesced": false, "solution": {}})");
}

TEST_F(JsonGoldenCatalogTest, ErrorResponse) {
  EXPECT_EQ(ErrorResponseJson("17", Status::NotFound(
                                        "no graph 'x'\n\t\"q\" \\ \x01 end")),
      R"({"id": 17, "status": "error", "code": "NOT_FOUND", )"
      R"("message": "no graph 'x'\n\t\"q\" \\ \u0001 end"})");
  EXPECT_EQ(ErrorResponseJson("", Status::Unavailable("queue full")),
      R"({"id": null, "status": "error", "code": "UNAVAILABLE", )"
      R"("message": "queue full"})");
}

TEST_F(JsonGoldenCatalogTest, UpdateResponse) {
  WireRequest wire;
  wire.id_raw = "2";
  wire.graph = "reviews";
  CatalogEntry::UpdateResult result;
  result.version = 5;
  result.applied = 3;
  result.num_vertices = 400;
  result.num_edges = 2310;
  EXPECT_EQ(UpdateResponseJson(wire, result),
      R"({"id": 2, "status": "ok", "op": "update", "graph": "reviews", )"
      R"("version": 5, "applied": 3, "num_vertices": 400, )"
      R"("num_edges": 2310})");
}

TEST_F(JsonGoldenCatalogTest, ListGraphsResponse) {
  EXPECT_EQ(ListGraphsResponseJson("3", catalog_),
      R"({"id": 3, "status": "ok", "op": "list_graphs", )"
      R"("graphs": [{"name": "a-uni", "weighted": false, "version": 0, )"
      R"("num_vertices": 20, "num_edges": 80, "solves": 0}, )"
      R"({"name": "b-\"w\"", "weighted": true, "version": 0, )"
      R"("num_vertices": 12, "num_edges": 30, "solves": 0}]})");
  EXPECT_EQ(ListGraphsResponseJson("", GraphCatalog{}),
      R"({"id": null, "status": "ok", "op": "list_graphs", "graphs": []})");
}

TEST_F(JsonGoldenCatalogTest, ServerStatsResponse) {
  const RequestScheduler plain(&catalog_, SchedulerOptions{});
  EXPECT_EQ(ServerStatsResponseJson("4", catalog_, plain),
      R"({"id": 4, "status": "ok", "op": "server_stats", "num_graphs": 2, )"
      R"("accepted": 0, "served": 0, "rejected": 0, "queued": 0, )"
      R"("coalesced": 0, "batches": 0, "batched": 0, )"
      R"("cache_enabled": false, "cache_hits": 0, "cache_misses": 0, )"
      R"("cache_evictions": 0, "cache_recent_evictions": 0, )"
      R"("cache_invalidations": 0, "cache_entries": 0, "cache_bytes": 0})");
  SchedulerOptions cached;
  cached.cache_bytes = 1 << 20;
  const RequestScheduler with_cache(&catalog_, cached);
  EXPECT_EQ(ServerStatsResponseJson("4", catalog_, with_cache),
      R"({"id": 4, "status": "ok", "op": "server_stats", "num_graphs": 2, )"
      R"("accepted": 0, "served": 0, "rejected": 0, "queued": 0, )"
      R"("coalesced": 0, "batches": 0, "batched": 0, )"
      R"("cache_enabled": true, "cache_hits": 0, "cache_misses": 0, )"
      R"("cache_evictions": 0, "cache_recent_evictions": 0, )"
      R"("cache_invalidations": 0, "cache_entries": 0, "cache_bytes": 0})");
}

TEST_F(JsonGoldenCatalogTest, HealthResponse) {
  RequestScheduler scheduler(&catalog_, SchedulerOptions{});
  // Not started yet: alive but not accepting.
  EXPECT_EQ(HealthResponseJson("5", catalog_, scheduler),
      R"({"id": 5, "status": "degraded", "op": "health", "healthy": false, )"
      R"("accepting": false, "num_graphs": 2, "queued": 0, )"
      R"("reasons": ["not_accepting"]})");
  scheduler.Start();
  EXPECT_EQ(HealthResponseJson("5", catalog_, scheduler),
      R"({"id": 5, "status": "ok", "op": "health", "healthy": true, )"
      R"("accepting": true, "num_graphs": 2, "queued": 0, "reasons": []})");
  scheduler.Stop();
}

}  // namespace
}  // namespace ddsgraph
