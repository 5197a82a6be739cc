// The streaming verbs of the serve stack, driven end to end over real
// TCP: `update` batches into live catalog graphs, `list_graphs` /
// `server_stats` introspection, the per-verb wire schema, and the
// update-vs-solve race the per-entry locking must survive (the TSan CI
// job runs this suite).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/edge_stream.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

class StreamServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uni_ = UniformDigraph(40, 160, 3);
    wuni_ = UniformWeightedDigraph(30, 120, 7, WeightOptions{});
    ASSERT_TRUE(catalog_.AddGraph("uni", uni_).ok());
    ASSERT_TRUE(catalog_.AddGraph("wuni", wuni_).ok());
  }

  // Starts the server and connects one client.
  void StartAndConnect(ServeClient* client) {
    server_ = std::make_unique<DdsServer>(&catalog_, ServerOptions{});
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
  WeightedDigraph wuni_;
  GraphCatalog catalog_;
  std::unique_ptr<DdsServer> server_;
};

TEST_F(StreamServeTest, UpdateVerbAppliesBatchesAndSolvesSeeThem) {
  ServeClient client;
  StartAndConnect(&client);

  // Plant a dense 3 x 4 block the base graph does not have; the solve
  // after the update must find a denser pair than the solve before it.
  EdgeBatch block;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 30; v < 34; ++v) block.push_back(EdgeOp::Insert(u, v));
  }
  const std::string before =
      Call(&client, "{\"graph\": \"uni\", \"algo\": \"core-exact\"}");
  ASSERT_EQ(FindJsonString(before, "status").value_or(""), "ok");

  const std::string update = Call(
      &client, "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"" +
                   FormatEdgeOps(block) + "\", \"id\": 5}");
  ASSERT_EQ(FindJsonString(update, "status").value_or(""), "ok") << update;
  EXPECT_EQ(FindJsonNumber(update, "version").value_or(-1), 1);
  EXPECT_NE(update.find("\"id\": 5"), std::string::npos);
  const double applied = FindJsonNumber(update, "applied").value_or(-1);
  EXPECT_GE(applied, 1);
  EXPECT_LE(applied, 12);

  // The wire solve after the update equals a direct engine solve on the
  // same logical graph, built statically — end-to-end identity through
  // overlay, compaction, engine rebind and serialization.
  std::vector<Edge> merged = uni_.EdgeList();
  for (const EdgeOp& op : block) merged.emplace_back(op.from, op.to);
  const Digraph updated = Digraph::FromEdges(40, std::move(merged));
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> direct = DdsEngine(updated).Solve(request);
  ASSERT_TRUE(direct.ok());

  const std::string after =
      Call(&client, "{\"graph\": \"uni\", \"algo\": \"core-exact\"}");
  ASSERT_EQ(FindJsonString(after, "status").value_or(""), "ok") << after;
  const double after_density = FindJsonNumber(after, "density").value_or(0);
  // The wire value is FormatDouble'd, so compare within its precision.
  EXPECT_NEAR(after_density, direct.value().density,
              1e-9 * std::max(1.0, direct.value().density));
  // The planted block can only raise the optimum, and at least to its own
  // density 12/sqrt(12) — proof the solve ran on the updated graph.
  EXPECT_GE(after_density,
            FindJsonNumber(before, "density").value_or(0) - 1e-9);
  EXPECT_GE(after_density, 12.0 / std::sqrt(12.0) - 1e-9);

  // A second update bumps the version again.
  const std::string update2 =
      Call(&client,
           "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"-0 30\"}");
  EXPECT_EQ(FindJsonNumber(update2, "version").value_or(-1), 2);
  server_->Stop();
}

TEST_F(StreamServeTest, WeightedUpdatesMergeWeights) {
  ServeClient client;
  StartAndConnect(&client);
  const std::string update = Call(
      &client,
      "{\"op\": \"update\", \"graph\": \"wuni\", \"weighted\": true, "
      "\"edges\": \"+0 1 5, +0 1 2\"}");
  ASSERT_EQ(FindJsonString(update, "status").value_or(""), "ok") << update;
  EXPECT_EQ(FindJsonNumber(update, "applied").value_or(-1), 2);
  server_->Stop();
}

TEST_F(StreamServeTest, ListGraphsAndServerStatsReportLiveState) {
  ServeClient client;
  StartAndConnect(&client);

  Call(&client, "{\"graph\": \"uni\", \"algo\": \"peel-approx\"}");
  Call(&client,
       "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"+0 39\"}");

  const std::string list =
      Call(&client, "{\"op\": \"list_graphs\", \"id\": 1}");
  EXPECT_EQ(FindJsonString(list, "status").value_or(""), "ok") << list;
  EXPECT_NE(list.find("\"name\": \"uni\""), std::string::npos);
  EXPECT_NE(list.find("\"name\": \"wuni\""), std::string::npos);
  // uni: one applied update batch, one solve; wuni: pristine.
  EXPECT_NE(list.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(list.find("\"version\": 0"), std::string::npos);
  EXPECT_NE(list.find("\"solves\": 1"), std::string::npos);

  const std::string stats =
      Call(&client, "{\"op\": \"server_stats\", \"id\": 2}");
  EXPECT_EQ(FindJsonString(stats, "status").value_or(""), "ok") << stats;
  EXPECT_EQ(FindJsonNumber(stats, "num_graphs").value_or(0), 2);
  // The introspection verbs are answered off-scheduler: only the solve
  // counts as accepted/served.
  EXPECT_EQ(FindJsonNumber(stats, "accepted").value_or(-1), 1);
  EXPECT_EQ(FindJsonNumber(stats, "served").value_or(-1), 1);
  EXPECT_EQ(FindJsonNumber(stats, "rejected").value_or(-1), 0);
  server_->Stop();
}

TEST_F(StreamServeTest, UpdateSchemaAndErrorCases) {
  ServeClient client;
  StartAndConnect(&client);
  auto code = [&](const std::string& request) {
    return FindJsonString(Call(&client, request), "code").value_or("");
  };

  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"nope\", "
                 "\"edges\": \"+1 2\"}"),
            "NOT_FOUND");
  // The per-verb key matrix: solve keys are forbidden on update, edges is
  // required, and edges on a solve is rejected.
  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"uni\", "
                 "\"edges\": \"+1 2\", \"algo\": \"core-exact\"}"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"uni\"}"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(code("{\"graph\": \"uni\", \"edges\": \"+1 2\"}"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(code("{\"op\": \"list_graphs\", \"graph\": \"uni\"}"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(code("{\"op\": \"frobnicate\"}"), "INVALID_ARGUMENT");
  // Bad ops grammar and flavor mismatches.
  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"uni\", "
                 "\"edges\": \"banana\"}"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"uni\", "
                 "\"edges\": \"+1 2 7\"}"),
            "INVALID_ARGUMENT");  // weight != 1 on an unweighted graph
  EXPECT_EQ(code("{\"op\": \"update\", \"graph\": \"uni\", "
                 "\"weighted\": true, \"edges\": \"+1 2\"}"),
            "INVALID_ARGUMENT");

  // After the error volley the connection still works.
  const std::string ok = Call(
      &client,
      "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"+1 2\"}");
  EXPECT_EQ(FindJsonString(ok, "status").value_or(""), "ok");
  server_->Stop();
}

// The race the dynamic catalog must survive: updates, solves and
// introspection hammering the same entry from concurrent connections.
// Run under TSan in CI; correctness here is "every response is ok and the
// final version equals the number of update batches".
TEST_F(StreamServeTest, ConcurrentUpdatesSolvesAndStatsRace) {
  ServerOptions options;
  options.scheduler.workers = 2;
  server_ = std::make_unique<DdsServer>(&catalog_, options);
  const Result<int> port = server_->Start();
  ASSERT_TRUE(port.ok());

  constexpr int kUpdates = 12;
  constexpr int kSolves = 8;
  std::vector<std::string> failures(3);

  std::thread updater([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", port.value()).ok()) {
      failures[0] = "connect";
      return;
    }
    Rng rng(17);
    for (int i = 0; i < kUpdates; ++i) {
      EdgeBatch batch;
      for (int k = 0; k < 6; ++k) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(40));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(40));
        if (u == v) continue;
        batch.push_back(rng.NextBounded(4) == 0 ? EdgeOp::Delete(u, v)
                                                : EdgeOp::Insert(u, v));
      }
      if (batch.empty()) batch.push_back(EdgeOp::Insert(0, 1));
      const Result<std::string> r = client.Call(
          "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"" +
          FormatEdgeOps(batch) + "\"}");
      if (!r.ok() ||
          FindJsonString(r.value(), "status").value_or("") != "ok") {
        failures[0] = r.ok() ? r.value() : r.status().ToString();
        return;
      }
    }
  });
  std::thread solver([&] {
    ServeClient client;
    if (!client.Connect("127.0.0.1", port.value()).ok()) {
      failures[1] = "connect";
      return;
    }
    for (int i = 0; i < kSolves; ++i) {
      const std::string algo = i % 2 == 0 ? "core-approx" : "core-exact";
      const Result<std::string> r = client.Call(
          "{\"graph\": \"uni\", \"algo\": \"" + algo + "\"}");
      if (!r.ok() ||
          FindJsonString(r.value(), "status").value_or("") != "ok") {
        failures[1] = r.ok() ? r.value() : r.status().ToString();
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
    for (int i = 0; i < 10; ++i) {
      const std::string op = i % 2 == 0 ? "list_graphs" : "server_stats";
      const Result<std::string> r =
          client.Call("{\"op\": \"" + op + "\"}");
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
  EXPECT_EQ(entry->num_solves(), kSolves);
  // A post-race solve still answers and matches a fresh direct engine on
  // the entry's final snapshot — no torn state survived the race.
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const Result<DdsSolution> served = entry->Solve(request);
  ASSERT_TRUE(served.ok());
  EXPECT_GT(served.value().density, 0);
}

}  // namespace
}  // namespace ddsgraph
