// The self-healing client (serve/client.h) and the degraded-health
// surface (DESIGN.md §16): retry-with-backoff through injected
// UNAVAILABLE responses, reconnection across a server restart on the
// same port, socket timeout classification, and the health verb's
// "status": "ok" | "degraded" reasons (queue saturation, WAL fsync
// errors, recent cache eviction) — unit-level and over the wire.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
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
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/socket.h"

namespace ddsgraph {
namespace {

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

ServeRequest MakeRequest(const std::string& graph,
                         DdsAlgorithm algorithm) {
  ServeRequest request;
  request.graph = graph;
  request.request.algorithm = algorithm;
  return request;
}

// Fast-backoff client options so retry tests don't sleep for real.
ServeClientOptions FastRetry(int max_attempts) {
  ServeClientOptions options;
  options.max_attempts = max_attempts;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 10;
  options.connect_timeout_s = 5;
  options.read_timeout_s = 30;
  return options;
}

class ServeRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddGraph("uni", UniformDigraph(40, 160, 3)).ok());
  }
  void TearDown() override { Failpoints::DeactivateAll(); }

  int Start(int port = 0) {
    ServerOptions options;
    options.port = port;
    server_ = std::make_unique<DdsServer>(&catalog_, options);
    const Result<int> started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    return started.ok() ? started.value() : -1;
  }

  GraphCatalog catalog_;
  std::unique_ptr<DdsServer> server_;
};

TEST_F(ServeRetryTest, RetriesThroughInjectedUnavailableResponses) {
  const int port = Start();
  ServeClient client(FastRetry(8));
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  // The server's overload stand-in: the first two solve frames get the
  // same UNAVAILABLE a saturated admission queue would produce.
  Failpoints::Activate("serve:reject", Failpoints::Action::kError,
                       /*fire_after=*/0, /*fire_times=*/2);
  const Result<std::string> response =
      client.CallRetrying("{\"graph\": \"uni\", \"algo\": \"core-exact\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(FindJsonString(response.value(), "status").value_or(""), "ok");
  EXPECT_EQ(client.retries(), 2);
  EXPECT_EQ(client.reconnects(), 0);  // responses arrived; no transport loss
}

TEST_F(ServeRetryTest, PlainCallDoesNotRetryUnavailableResponses) {
  const int port = Start();
  ServeClient client(FastRetry(8));
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  Failpoints::Activate("serve:reject", Failpoints::Action::kError);
  const Result<std::string> response =
      client.Call("{\"graph\": \"uni\", \"algo\": \"core-exact\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(FindJsonString(response.value(), "code").value_or(""),
            "UNAVAILABLE");
}

TEST_F(ServeRetryTest, NonRetryableErrorsReturnImmediately) {
  const int port = Start();
  ServeClient client(FastRetry(8));
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const Result<std::string> response =
      client.CallRetrying("{\"graph\": \"no-such-graph\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(FindJsonString(response.value(), "code").value_or(""),
            "NOT_FOUND");
  EXPECT_EQ(client.retries(), 0);  // a NOT_FOUND will not heal with time
}

// The schedule-independent prefix of a solution's JSON — the same slice
// SolutionSliceForCompare extracts from a wire response.
std::string SliceOf(const DdsSolution& solution) {
  const std::string json = SolutionJson(solution);
  const size_t stats = json.find(", \"stats\"");
  EXPECT_NE(stats, std::string::npos) << json;
  return json.substr(0, stats);
}

// Self-healing clients ride CallRetrying through a real server bounce.
// Every client parks at its midpoint until the server has been stopped
// and a fresh instance started on the SAME port, so each one's second
// half provably crosses the restart. Every response, from both halves,
// must be bit-identical to a direct single-threaded engine solve.
TEST_F(ServeRetryTest, ReconnectsAcrossAServerRestartOnTheSamePort) {
  const Digraph uni = UniformDigraph(40, 160, 3);
  const WeightedDigraph wuni =
      UniformWeightedDigraph(30, 120, 7, WeightOptions{});
  ASSERT_TRUE(catalog_.AddGraph("wuni", wuni).ok());

  // A small core-exact / peel-approx mix over both weight flavors, each
  // item's expected slice precomputed off the serve stack.
  struct MixItem {
    std::string request_json;
    std::string expected;
  };
  std::vector<MixItem> mix;
  for (const bool weighted : {false, true}) {
    for (const DdsAlgorithm algorithm :
         {DdsAlgorithm::kCoreExact, DdsAlgorithm::kPeelApprox}) {
      DdsRequest request;
      request.algorithm = algorithm;
      const Result<DdsSolution> direct =
          weighted ? DdsEngine(wuni).Solve(request)
                   : DdsEngine(uni).Solve(request);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      mix.push_back(
          {"{\"graph\": \"" + std::string(weighted ? "wuni" : "uni") +
               "\", \"algo\": \"" + AlgorithmName(algorithm) +
               "\", \"weighted\": " + (weighted ? "true" : "false") + "}",
           SliceOf(direct.value())});
    }
  }

  const int port = Start();
  constexpr int kClients = 4;
  constexpr int kRequests = 8;  // per client, half on each side
  struct ClientLog {
    std::string error;
    int verified = 0;
    int64_t reconnects = 0;
    int64_t retries = 0;
  };
  std::vector<ClientLog> logs(kClients);
  std::atomic<int> at_midpoint{0};
  std::atomic<bool> restarted{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      ServeClient client(FastRetry(12));
      const Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) log.error = "connect: " + connected.ToString();
      // Solves requests [begin, end); false once a response fails.
      const auto run = [&](int begin, int end) {
        for (int r = begin; r < end && log.error.empty(); ++r) {
          const MixItem& item =
              mix[static_cast<size_t>(c + r) % mix.size()];
          const Result<std::string> response =
              client.CallRetrying(item.request_json);
          if (!response.ok()) {
            log.error = response.status().ToString();
          } else if (FindJsonString(response.value(), "status")
                         .value_or("") != "ok") {
            log.error = response.value();
          } else {
            const Result<std::string> slice =
                SolutionSliceForCompare(response.value());
            if (!slice.ok() || slice.value() != item.expected) {
              log.error = "DIVERGENCE on " + item.request_json +
                          "\n  expected: " + item.expected +
                          "\n  served:   " +
                          (slice.ok() ? slice.value()
                                      : slice.status().ToString());
            } else {
              ++log.verified;
            }
          }
        }
      };
      run(0, kRequests / 2);
      // Arrive even after a failure, so the bounce below never waits
      // forever on a client that gave up.
      at_midpoint.fetch_add(1, std::memory_order_acq_rel);
      while (!restarted.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      run(kRequests / 2, kRequests);
      log.reconnects = client.reconnects();
      log.retries = client.retries();
    });
  }
  while (at_midpoint.load(std::memory_order_acquire) < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Bounce the server: drain-stop, then a new instance on the same port
  // (SO_REUSEADDR makes the rebind immediate).
  server_->Stop();
  server_.reset();
  const int restarted_port = Start(port);
  restarted.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(restarted_port, port);

  // Each client's first post-restart attempt hits its dead connection,
  // reconnects with backoff and completes.
  for (const ClientLog& log : logs) {
    EXPECT_EQ(log.error, "");
    EXPECT_EQ(log.verified, kRequests);
    EXPECT_GE(log.reconnects, 1);
    EXPECT_GE(log.retries, 1);
  }
}

TEST_F(ServeRetryTest, ConnectionRefusedIsRetryableUnavailable) {
  // Grab an ephemeral port, then close the listener so nothing owns it.
  int dead_port = 0;
  {
    const Result<UniqueSocket> listener =
        TcpListen("127.0.0.1", 0, &dead_port);
    ASSERT_TRUE(listener.ok());
  }
  ServeClient client(FastRetry(2));
  const Status refused = client.Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
}

TEST_F(ServeRetryTest, ReadTimeoutSurfacesAsUnavailable) {
  // A listener that never accepts: the connect lands in the backlog, the
  // request is written into the socket buffer, and no response ever
  // comes — exactly what a wedged server looks like from outside.
  int port = 0;
  const Result<UniqueSocket> listener = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.ok());
  ServeClientOptions options = FastRetry(1);
  options.read_timeout_s = 0.2;
  ServeClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const Result<std::string> response = client.Call("{\"op\": \"health\"}");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeRetryTest, ExhaustedRetriesReturnTheLastTransportError) {
  const int port = Start();
  ServeClient client(FastRetry(3));
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  server_->Stop();
  server_.reset();  // nothing listens on `port` anymore
  const Result<std::string> response =
      client.CallRetrying("{\"graph\": \"uni\"}");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.retries(), 2);  // attempts 2 and 3 of 3
}

// ------------------------------------------------------ degraded health

class HealthDegradedTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(HealthDegradedTest, FreshServerReportsOkWithNoReasons) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(20, 80, 1)).ok());
  RequestScheduler scheduler(&catalog, SchedulerOptions{});
  scheduler.Start();
  const std::string health = HealthResponseJson("1", catalog, scheduler);
  EXPECT_EQ(FindJsonString(health, "status").value_or(""), "ok");
  EXPECT_NE(health.find("\"reasons\": []"), std::string::npos) << health;
  scheduler.Stop();
}

TEST_F(HealthDegradedTest, QueueSaturationReportsDegraded) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(30, 150, 5)).ok());
  SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 5;
  RequestScheduler scheduler(&catalog, options);
  scheduler.Start();

  // Pin the only worker mid-solve, then fill 4 of the 5 queue slots:
  // 4/5 = 80% — the degraded threshold, while Submit still accepts.
  SolveGate gate;
  ServeRequest gated = MakeRequest("uni", DdsAlgorithm::kCoreExact);
  gated.request.progress = gate.AsProgress();
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  const ServeCallback count = [&](ServeResponse) {
    std::lock_guard<std::mutex> lock(done_mu);
    ++done;
    done_cv.notify_all();
  };
  ASSERT_TRUE(scheduler.Submit(std::move(gated), count).ok());
  gate.WaitEntered();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        scheduler.Submit(MakeRequest("uni", DdsAlgorithm::kPeelApprox), count)
            .ok());
  }
  ASSERT_EQ(scheduler.queued(), 4);

  const std::string health = HealthResponseJson("1", catalog, scheduler);
  EXPECT_EQ(FindJsonString(health, "status").value_or(""), "degraded")
      << health;
  EXPECT_NE(health.find("\"queue_saturated\""), std::string::npos);
  // Liveness is a separate axis: a saturated server is still accepting.
  EXPECT_NE(health.find("\"healthy\": true"), std::string::npos);

  gate.Release();
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == 5; });
  }
  // Drained: back to ok.
  const std::string drained = HealthResponseJson("1", catalog, scheduler);
  EXPECT_EQ(FindJsonString(drained, "status").value_or(""), "ok");
  scheduler.Stop();
}

TEST_F(HealthDegradedTest, WalFsyncErrorsReportDegradedOverTheWire) {
  const std::string dir =
      testing::TempDir() + "/health_wal_degraded";
  std::filesystem::remove_all(dir);
  GraphCatalog catalog;
  PersistOptions persist;
  persist.data_dir = dir;
  ASSERT_TRUE(catalog.EnablePersistence(persist).ok());
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(30, 120, 3)).ok());

  DdsServer server(&catalog, ServerOptions{});
  const Result<int> port = server.Start();
  ASSERT_TRUE(port.ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port.value()).ok());

  // Healthy before the injected disk failure.
  Result<std::string> health = client.Call("{\"op\": \"health\"}");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(FindJsonString(health.value(), "status").value_or(""), "ok");

  // One failed fsync: the update errs (and is not acked), and health
  // flips to degraded — stickily, since a lost fsync can't be unlost.
  Failpoints::Activate("wal:fsync_error", Failpoints::Action::kError);
  const Result<std::string> update = client.Call(
      "{\"op\": \"update\", \"graph\": \"uni\", \"edges\": \"+1 2\"}");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(FindJsonString(update.value(), "status").value_or(""), "error");

  health = client.Call("{\"op\": \"health\"}");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(FindJsonString(health.value(), "status").value_or(""),
            "degraded")
      << health.value();
  EXPECT_NE(health.value().find("\"wal_sync_errors\""), std::string::npos);
  server.Stop();
}

TEST_F(HealthDegradedTest, CacheEvictionsReportDegradedThenDecay) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("uni", UniformDigraph(40, 160, 3)).ok());
  SchedulerOptions options;
  options.workers = 1;
  // A budget no two responses fit in: the second distinct solve evicts
  // the first.
  options.cache_bytes = 700;
  // Short window so this test can watch the signal decay.
  options.cache_eviction_window_s = 0.05;
  RequestScheduler scheduler(&catalog, options);
  scheduler.Start();

  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  const ServeCallback count = [&](ServeResponse) {
    std::lock_guard<std::mutex> lock(done_mu);
    ++done;
    done_cv.notify_all();
  };
  const DdsAlgorithm algos[] = {DdsAlgorithm::kCoreExact,
                                DdsAlgorithm::kPeelApprox,
                                DdsAlgorithm::kCoreApprox};
  for (const DdsAlgorithm algo : algos) {
    ASSERT_TRUE(scheduler.Submit(MakeRequest("uni", algo), count).ok());
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done >= 1; });
    done = 0;
  }
  ASSERT_GT(scheduler.cache_counters().evictions, 0)
      << "test premise: the cache budget must force an eviction";

  // Evicting *right now*: degraded, so clients and the monitor back off.
  const std::string health = HealthResponseJson("1", catalog, scheduler);
  EXPECT_EQ(FindJsonString(health, "status").value_or(""), "degraded");
  EXPECT_NE(health.find("\"cache_evicting\""), std::string::npos);

  // A bounded cache evicting occasionally is steady-state, not a fault:
  // once the pressure stops the signal must decay back to ok (unlike
  // wal_sync_errors, which is sticky on purpose).
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const std::string calmed = HealthResponseJson("1", catalog, scheduler);
  EXPECT_EQ(FindJsonString(calmed, "status").value_or(""), "ok") << calmed;
  scheduler.Stop();
}

}  // namespace
}  // namespace ddsgraph
