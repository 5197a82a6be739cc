#include "serve/server.h"

#include <condition_variable>
#include <mutex>
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
#include "serve/scheduler.h"

namespace ddsgraph {
namespace {

// ------------------------------------------------------------- utilities

// Blocks the solve that carries it inside its first progress callback
// until Release(), which is how these tests pin a scheduler worker (or an
// engine) in the middle of a solve deterministically.
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

// Collects scheduler callback results across worker threads.
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
  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return responses.size();
  }
};

// The schedule-independent prefix of a solution's JSON — the same slice
// SolutionSliceForCompare extracts from a wire response.
std::string SliceOf(const DdsSolution& solution,
                    const std::vector<uint64_t>& labels = {}) {
  const std::string json = SolutionJson(solution, labels);
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

// ------------------------------------------------------------- protocol

TEST(ServeProtocolTest, ParsesFlatObjectScalars) {
  const auto parsed = ParseFlatJsonObject(
      "{\"graph\": \"web\", \"deadline_ms\": 12.5, \"weighted\": true, "
      "\"note\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& map = parsed.value();
  ASSERT_EQ(map.size(), 4u);
  EXPECT_EQ(map.at("graph").kind, JsonScalar::Kind::kString);
  EXPECT_EQ(map.at("graph").string_value, "web");
  EXPECT_EQ(map.at("deadline_ms").kind, JsonScalar::Kind::kNumber);
  EXPECT_DOUBLE_EQ(map.at("deadline_ms").number, 12.5);
  EXPECT_EQ(map.at("weighted").kind, JsonScalar::Kind::kBool);
  EXPECT_TRUE(map.at("weighted").boolean);
  EXPECT_EQ(map.at("note").kind, JsonScalar::Kind::kNull);
}

TEST(ServeProtocolTest, RejectsNestingDuplicatesAndTrailingBytes) {
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": {\"b\": 1}}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": [1, 2]}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": 1, \"a\": 2}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseFlatJsonObject("not json at all").ok());
}

TEST(ServeProtocolTest, DecodesUnicodeEscapesAsUtf8) {
  const auto parsed = ParseFlatJsonObject(
      "{\"ascii\": \"a\\u0062c\", \"nul\": \"x\\u0000y\", "
      "\"two\": \"caf\\u00e9\", \"three\": \"\\u20AC\", "
      "\"pair\": \"\\ud83d\\ude00\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& map = parsed.value();
  EXPECT_EQ(map.at("ascii").string_value, "abc");
  EXPECT_EQ(map.at("nul").string_value, std::string("x\0y", 3));
  EXPECT_EQ(map.at("two").string_value, "caf\xc3\xa9");
  EXPECT_EQ(map.at("three").string_value, "\xe2\x82\xac");
  EXPECT_EQ(map.at("pair").string_value, "\xf0\x9f\x98\x80");
  // The raw form keeps the escapes as they were sent.
  EXPECT_EQ(map.at("ascii").raw, "\"a\\u0062c\"");
}

TEST(ServeProtocolTest, RejectsMalformedUnicodeEscapes) {
  for (const char* bad : {"\"\\u12\"", "\"\\u12g4\"", "\"\\ude00\"",
                          "\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"",
                          "\"\\ud83d\\ud83d\""}) {
    EXPECT_FALSE(ParseFlatJsonObject(std::string("{\"a\": ") + bad + "}").ok())
        << bad;
  }
}

TEST(ServeProtocolTest, ControlCharactersInMessagesRoundTrip) {
  // JsonWriter writes \x01 as \u0001; the reader must decode it back.
  const std::string error =
      ErrorResponseJson("1", Status::NotFound("bad \x01 name"));
  EXPECT_NE(error.find("\\u0001"), std::string::npos);
  EXPECT_EQ(FindJsonString(error, "message"),
            std::optional<std::string>("bad \x01 name"));
}

TEST(ServeProtocolTest, WireRequestDefaultsAndStrictKeys) {
  const auto ok = ParseWireRequest("{\"graph\": \"g\"}");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().graph, "g");
  EXPECT_EQ(ok.value().algo, "core-exact");
  EXPECT_FALSE(ok.value().weighted.has_value());
  EXPECT_EQ(ok.value().deadline_ms, 0);
  EXPECT_EQ(ok.value().threads, 1);

  // A typo'd key must fail loudly, not silently drop the option.
  const auto typo = ParseWireRequest("{\"graph\": \"g\", \"deadlin_ms\": 5}");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("deadlin_ms"), std::string::npos);

  EXPECT_FALSE(ParseWireRequest("{}").ok());  // graph is required
  EXPECT_FALSE(
      ParseWireRequest("{\"graph\": \"g\", \"deadline_ms\": -1}").ok());
  EXPECT_FALSE(ParseWireRequest("{\"graph\": \"g\", \"threads\": 0}").ok());
  EXPECT_FALSE(ParseWireRequest("{\"graph\": \"g\", \"threads\": 1.5}").ok());
}

TEST(ServeProtocolTest, UnknownAlgoNamesTheRegistry) {
  const auto wire = ParseWireRequest("{\"graph\": \"g\", \"algo\": \"nope\"}");
  ASSERT_TRUE(wire.ok());
  const auto serve = ToServeRequest(wire.value());
  ASSERT_FALSE(serve.ok());
  EXPECT_EQ(serve.status().code(), StatusCode::kInvalidArgument);
  // The registry help string lists the real vocabulary.
  EXPECT_NE(serve.status().message().find("core-exact"), std::string::npos);
}

TEST(ServeProtocolTest, ResponseHelpersRoundTrip) {
  const std::string error =
      ErrorResponseJson("17", Status::NotFound("no such graph 'x'"));
  EXPECT_EQ(FindJsonString(error, "status").value_or(""), "error");
  EXPECT_EQ(FindJsonString(error, "code").value_or(""), "NOT_FOUND");
  EXPECT_NE(error.find("\"id\": 17"), std::string::npos);
  EXPECT_EQ(FindJsonNumber("{\"queue_ms\": 1.25}", "queue_ms").value_or(0),
            1.25);
  EXPECT_FALSE(FindJsonNumber("{\"a\": 1}", "b").has_value());
}

// ------------------------------------------------------------ scheduler

TEST(ServeSchedulerTest, SolutionsBitIdenticalToDirectEngine) {
  const Digraph g = UniformDigraph(60, 300, 3);
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", g).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{2, 16});
  scheduler.Start();

  const DdsAlgorithm algos[] = {DdsAlgorithm::kCoreExact,
                                DdsAlgorithm::kPeelApprox,
                                DdsAlgorithm::kCoreApprox};
  // Two rounds per algorithm: the second lands on a warm engine, so a
  // cross-request workspace leak would show up as a slice mismatch.
  std::vector<ResponseCollector> collected(6);
  for (int round = 0; round < 2; ++round) {
    for (int a = 0; a < 3; ++a) {
      ASSERT_TRUE(scheduler
                      .Submit(MakeRequest("uni", algos[a]),
                              collected[3 * round + a].AsCallback())
                      .ok());
    }
  }
  for (auto& c : collected) c.WaitCount(1);
  scheduler.Stop();
  EXPECT_EQ(scheduler.served(), 6);

  for (int a = 0; a < 3; ++a) {
    DdsEngine direct(g);
    DdsRequest request;
    request.algorithm = algos[a];
    const Result<DdsSolution> expected = direct.Solve(request);
    ASSERT_TRUE(expected.ok());
    const std::string want = SliceOf(expected.value());
    for (int round = 0; round < 2; ++round) {
      const ServeResponse& r = collected[3 * round + a].responses[0];
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(SliceOf(r.solution), want) << "round " << round;
      EXPECT_GE(r.queue_ms, 0);
      EXPECT_GT(r.solve_ms, 0);
      // The latency split also travels inside the solution stats.
      EXPECT_DOUBLE_EQ(r.solution.stats.queue_ms, r.queue_ms);
      EXPECT_DOUBLE_EQ(r.solution.stats.solve_ms, r.solve_ms);
    }
  }
}

TEST(ServeSchedulerTest, RejectionsAreSynchronousAndCallbackFree) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(20, 80, 1)).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{1, 4});
  scheduler.Start();

  ResponseCollector never;
  const Status unknown = scheduler.Submit(
      MakeRequest("nope", DdsAlgorithm::kCoreExact), never.AsCallback());
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.message().find("nope"), std::string::npos);

  ServeRequest invalid = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  invalid.request.threads = 0;  // ValidateRequest must catch this
  EXPECT_EQ(scheduler.Submit(std::move(invalid), never.AsCallback()).code(),
            StatusCode::kInvalidArgument);

  scheduler.Stop();
  EXPECT_EQ(never.Count(), 0u);
  EXPECT_EQ(scheduler.served(), 0);
}

TEST(ServeSchedulerTest, FullQueueRejectedWithUnavailable) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(30, 150, 5)).ok());
  // One worker, one queue slot: the tightest backpressure configuration.
  RequestScheduler scheduler(&catalog, SchedulerOptions{1, 1});
  scheduler.Start();

  SolveGate gate;
  ResponseCollector collector;
  ServeRequest gated = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  ASSERT_TRUE(scheduler.Submit(std::move(gated), collector.AsCallback()).ok());
  gate.WaitEntered();  // the only worker is now pinned mid-solve

  // One more fits in the queue; the next must bounce.
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kPeelApprox),
                          collector.AsCallback())
                  .ok());
  const Status full = scheduler.Submit(
      MakeRequest("uni", DdsAlgorithm::kPeelApprox), collector.AsCallback());
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_NE(full.message().find("full"), std::string::npos);
  EXPECT_EQ(scheduler.rejected(), 1);

  gate.Release();
  collector.WaitCount(2);
  scheduler.Stop();
  EXPECT_EQ(scheduler.served(), 2);
  for (const ServeResponse& r : collector.responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
}

TEST(ServeSchedulerTest, QueueWaitChargesTheDeadline) {
  const Digraph g = UniformDigraph(150, 1200, 5);
  const double optimum = [&] {
    DdsEngine direct(g);
    DdsRequest full;
    full.algorithm = DdsAlgorithm::kCoreExact;
    return direct.Solve(full).value().density;
  }();

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", g).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{1, 4});
  scheduler.Start();

  // Pin the worker, then admit a deadlined request and let its whole
  // budget burn in the queue.
  SolveGate gate;
  ResponseCollector collector;
  // The gate rides on core-exact: only the anytime exact solvers invoke
  // the progress callback.
  ServeRequest gated = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  ASSERT_TRUE(scheduler.Submit(std::move(gated), collector.AsCallback()).ok());
  gate.WaitEntered();

  ServeRequest deadlined = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  deadlined.request.deadline_seconds = 1e-4;
  ASSERT_TRUE(
      scheduler.Submit(std::move(deadlined), collector.AsCallback()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Release();
  collector.WaitCount(2);
  scheduler.Stop();

  // The expired request still produced an answer: the anytime incumbent
  // with a certified bracket around the true optimum, not an error.
  const ServeResponse& expired = collector.responses[1];
  ASSERT_TRUE(expired.status.ok()) << expired.status.ToString();
  EXPECT_TRUE(expired.solution.interrupted);
  EXPECT_LE(expired.solution.lower_bound, optimum + 1e-9);
  EXPECT_GE(expired.solution.upper_bound + 1e-9, optimum);
  EXPECT_GE(expired.queue_ms, 15.0);  // the sleep happened while queued
}

TEST(ServeSchedulerTest, StopDrainsEveryAdmittedRequest) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(30, 150, 5)).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{1, 8});
  scheduler.Start();

  SolveGate gate;
  ResponseCollector collector;
  ServeRequest gated = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  ASSERT_TRUE(scheduler.Submit(std::move(gated), collector.AsCallback()).ok());
  gate.WaitEntered();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(MakeRequest("uni", DdsAlgorithm::kPeelApprox),
                            collector.AsCallback())
                    .ok());
  }

  // Stop with one request mid-solve and four queued: all five callbacks
  // must fire before Stop returns.
  std::thread stopper([&] { scheduler.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ResponseCollector late;
  EXPECT_EQ(scheduler
                .Submit(MakeRequest("uni", DdsAlgorithm::kPeelApprox),
                        late.AsCallback())
                .code(),
            StatusCode::kUnavailable);
  gate.Release();
  stopper.join();
  EXPECT_EQ(collector.Count(), 5u);
  EXPECT_EQ(scheduler.served(), 5);
  EXPECT_EQ(late.Count(), 0u);
  for (const ServeResponse& r : collector.responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
}

TEST(ServeSchedulerTest, ServedCountsTheSolveBeforeItsCallbackRuns) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(30, 150, 5)).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{1, 4});
  scheduler.Start();

  // A client that reads `served` as soon as its answer arrives must see
  // its own solve counted; the callback is the earliest such moment.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  int64_t served_in_callback = -1;
  ASSERT_TRUE(scheduler
                  .Submit(MakeRequest("uni", DdsAlgorithm::kCoreExact),
                          [&](ServeResponse response) {
                            EXPECT_TRUE(response.status.ok());
                            const int64_t served = scheduler.served();
                            {
                              std::lock_guard<std::mutex> lock(mu);
                              served_in_callback = served;
                              done = true;
                            }
                            cv.notify_all();
                          })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  scheduler.Stop();
  EXPECT_GE(served_in_callback, 1);
  EXPECT_EQ(scheduler.served(), 1);
}

// --------------------------------------------------------------- server

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uni_ = UniformDigraph(60, 300, 3);
    wuni_ = UniformWeightedDigraph(50, 250, 7, WeightOptions{});
    ASSERT_TRUE(catalog_.AddGraph("uni", uni_).ok());
    ASSERT_TRUE(catalog_.AddGraph("wuni", wuni_).ok());
  }

  // Expected wire slice for (graph, algo), from a direct engine.
  std::string DirectSlice(const std::string& graph,
                          const std::string& algo) {
    DdsRequest request;
    request.algorithm = *ParseAlgorithmName(algo);
    Result<DdsSolution> solved =
        graph == "uni" ? DdsEngine(uni_).Solve(request)
                       : DdsEngine(wuni_).Solve(request);
    EXPECT_TRUE(solved.ok()) << solved.status().ToString();
    return SliceOf(solved.value());
  }

  Digraph uni_;
  WeightedDigraph wuni_;
  GraphCatalog catalog_;
};

TEST_F(ServeServerTest, ConcurrentClientsGetBitIdenticalSolutions) {
  ServerOptions options;  // ephemeral port
  options.scheduler.workers = 2;
  DdsServer server(&catalog_, options);
  const Result<int> port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  struct Item {
    std::string request;
    std::string expected;
  };
  std::vector<Item> items;
  for (const auto& [graph, algo] :
       std::vector<std::pair<std::string, std::string>>{
           {"uni", "core-exact"},
           {"uni", "peel-approx"},
           {"wuni", "core-exact"},
           {"wuni", "peel-approx"}}) {
    items.push_back({"{\"graph\": \"" + graph + "\", \"algo\": \"" + algo +
                         "\"}",
                     DirectSlice(graph, algo)});
  }

  std::vector<std::string> failures(4);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      const Status connected = client.Connect("127.0.0.1", port.value());
      if (!connected.ok()) {
        failures[c] = connected.ToString();
        return;
      }
      for (int r = 0; r < 6; ++r) {
        const Item& item = items[(c + r) % items.size()];
        const Result<std::string> response = client.Call(item.request);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        const Result<std::string> slice =
            SolutionSliceForCompare(response.value());
        if (!slice.ok() || slice.value() != item.expected) {
          failures[c] = "slice mismatch: " + response.value();
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
  EXPECT_EQ(server.scheduler().served(), 24);
}

TEST_F(ServeServerTest, ErrorResponsesKeepTheConnectionUsable) {
  DdsServer server(&catalog_, ServerOptions{});
  const Result<int> port = server.Start();
  ASSERT_TRUE(port.ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port.value()).ok());

  // Malformed JSON in a well-formed frame: error response, live socket.
  auto call = [&](const std::string& request) {
    const Result<std::string> response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : std::string();
  };
  std::string r = call("this is not json");
  EXPECT_EQ(FindJsonString(r, "code").value_or(""), "INVALID_ARGUMENT");

  r = call("{\"graph\": \"missing\"}");
  EXPECT_EQ(FindJsonString(r, "code").value_or(""), "NOT_FOUND");

  r = call("{\"graph\": \"uni\", \"algo\": \"frobnicate\"}");
  EXPECT_EQ(FindJsonString(r, "code").value_or(""), "INVALID_ARGUMENT");
  EXPECT_NE(r.find("core-exact"), std::string::npos);  // registry help

  // Declared weightedness must match the catalog entry.
  r = call("{\"graph\": \"uni\", \"weighted\": true}");
  EXPECT_EQ(FindJsonString(r, "code").value_or(""), "INVALID_ARGUMENT");

  // And after four errors the same connection still serves a query.
  r = call("{\"graph\": \"uni\", \"algo\": \"peel-approx\", \"id\": 9}");
  EXPECT_EQ(FindJsonString(r, "status").value_or(""), "ok");
  EXPECT_NE(r.find("\"id\": 9"), std::string::npos);
  server.Stop();
}

TEST_F(ServeServerTest, StopDrainsWithClientsStillConnected) {
  DdsServer server(&catalog_, ServerOptions{});
  const Result<int> port = server.Start();
  ASSERT_TRUE(port.ok());

  ServeClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", port.value()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", port.value()).ok());
  ASSERT_TRUE(a.Call("{\"graph\": \"uni\", \"algo\": \"peel-approx\"}").ok());
  ASSERT_TRUE(b.Call("{\"graph\": \"wuni\", \"algo\": \"core-exact\"}").ok());

  // Idle connections must not wedge the drain.
  server.Stop();
  EXPECT_FALSE(a.Call("{\"graph\": \"uni\"}").ok());
  server.Stop();  // idempotent
}

// ------------------------------------------------------ engine reentrancy

TEST(DdsEngineReentrancyTest, ConcurrentSolveOnOneEngineIsUnavailable) {
  const Digraph g = UniformDigraph(30, 150, 5);
  DdsEngine engine(g);

  SolveGate gate;
  DdsRequest gated;
  gated.algorithm = DdsAlgorithm::kCoreExact;
  gated.progress = gate.AsProgress();
  Result<DdsSolution> first = Status::InvalidArgument("unset");
  std::thread solver([&] { first = engine.Solve(gated); });
  gate.WaitEntered();  // engine is now mid-solve on `solver`

  DdsRequest second;
  second.algorithm = DdsAlgorithm::kPeelApprox;
  const Result<DdsSolution> busy = engine.Solve(second);
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(busy.status().message().find("reentrant"), std::string::npos);

  gate.Release();
  solver.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The latch clears on exit: the engine serves again.
  EXPECT_TRUE(engine.Solve(second).ok());
}

}  // namespace
}  // namespace ddsgraph
