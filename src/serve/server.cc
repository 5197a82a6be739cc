#include "serve/server.h"

#include <utility>

#include "dds/solver.h"
#include "serve/protocol.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace ddsgraph {
namespace {

// The weighted flag is an expectation check, not a selector: a catalog
// name maps to one graph loaded in one flavor, and a client that asks for
// the other flavor should learn so instead of silently getting densities
// under a different objective. Ok when the flag is absent or the graph is
// unknown (the caller reports that itself).
Status CheckWeightedExpectation(const WireRequest& wire,
                                const CatalogEntry* entry) {
  if (!wire.weighted.has_value() || entry == nullptr ||
      entry->weighted() == *wire.weighted) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "graph '" + wire.graph + "' is loaded " +
      (entry->weighted() ? "weighted" : "unweighted") +
      " but the request says weighted=" +
      (*wire.weighted ? "true" : "false"));
}

}  // namespace

DdsServer::DdsServer(GraphCatalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      scheduler_(catalog, options_.scheduler) {
  CHECK(catalog != nullptr);
}

DdsServer::~DdsServer() { Stop(); }

Result<int> DdsServer::Start() {
  CHECK(!started_) << "DdsServer::Start called twice";
  Result<UniqueSocket> listener =
      TcpListen(options_.host, options_.port, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  scheduler_.Start();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void DdsServer::AcceptLoop() {
  for (;;) {
    Result<UniqueSocket> accepted = TcpAccept(listener_.fd());
    if (!accepted.ok()) {
      // kUnavailable = the listener was shut down (Stop); anything else
      // on a healthy listener is worth a log line, then keep serving.
      if (accepted.status().code() == StatusCode::kUnavailable) return;
      LOG(WARNING) << "accept failed: " << accepted.status().ToString();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(accepted).value();
    // Bounded response writes: a client that stops reading gets its
    // responses dropped after this, never a wedged writer (see Stop).
    (void)SetSendTimeout(conn->socket.fd(), /*seconds=*/30);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_) return;  // raced Stop; drop the connection
      connections_.insert(conn);
      ++active_readers_;
    }
    // Detached: Stop() joins logically via the active_readers_ count —
    // ConnectionLoop's last act touching `this` is retiring itself under
    // conn_mu_.
    std::thread(&DdsServer::ConnectionLoop, this, std::move(conn))
        .detach();
  }
}

void DdsServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::string payload;
    bool clean_eof = false;
    const Status read =
        ReadFrame(conn->socket.fd(), &payload, &clean_eof);
    // Clean close, torn frame, or shutdown-by-Stop all end the reader;
    // only a desynchronized stream is unrecoverable, and that is exactly
    // the non-clean cases.
    if (!read.ok() || clean_eof) break;
    HandleFrame(conn, payload);
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  connections_.erase(conn);
  --active_readers_;
  conn_cv_.notify_all();
}

void DdsServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  Result<WireRequest> parsed = ParseWireRequest(payload);
  if (!parsed.ok()) {
    // JSON-level errors keep the connection: the framing is intact.
    WriteResponse(conn, ErrorResponseJson("", parsed.status()));
    return;
  }
  const WireRequest wire = std::move(parsed).value();

  // The streaming/introspection verbs are answered synchronously from the
  // reader thread: they never run a solve, so they cannot stall other
  // frames on this connection for long, and they must keep working even
  // when the solve queue is saturated (an operator asking "server_stats"
  // *because* the server is overloaded).
  if (wire.op == "list_graphs") {
    WriteResponse(conn, ListGraphsResponseJson(wire.id_raw, *catalog_));
    return;
  }
  if (wire.op == "server_stats") {
    WriteResponse(
        conn, ServerStatsResponseJson(wire.id_raw, *catalog_, scheduler_));
    return;
  }
  if (wire.op == "health") {
    WriteResponse(conn,
                  HealthResponseJson(wire.id_raw, *catalog_, scheduler_));
    return;
  }
  if (wire.op == "update") {
    HandleUpdate(conn, wire);
    return;
  }

  // Deterministic overload stand-in for the retry tests: reject solve
  // traffic with the same UNAVAILABLE a saturated queue produces, while
  // the introspection verbs above stay answerable (an operator can still
  // ask a "failing" server for its health).
  if (DDS_FAILPOINT("serve:reject")) {
    WriteResponse(conn,
                  ErrorResponseJson(
                      wire.id_raw,
                      Status::Unavailable(
                          "injected failpoint: serve:reject")));
    return;
  }

  Result<ServeRequest> serve = ToServeRequest(wire);
  if (!serve.ok()) {
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, serve.status()));
    return;
  }

  const Status expected =
      CheckWeightedExpectation(wire, catalog_->Find(wire.graph));
  if (!expected.ok()) {
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, expected));
    return;
  }

  const Status admitted = scheduler_.Submit(
      std::move(serve).value(),
      [conn, wire](ServeResponse response) {
        if (!response.status.ok()) {
          WriteResponse(conn,
                        ErrorResponseJson(wire.id_raw, response.status));
          return;
        }
        // Entry labels translate dense ids back to the input file's ids,
        // exactly like dds_tool --json.
        const std::string solution_json = SolutionJson(
            response.solution, response.entry->labels());
        WriteResponse(conn,
                      OkResponseJson(wire, response, solution_json));
      });
  if (!admitted.ok()) {
    // Synchronous rejection (backpressure / bad request): answered from
    // the reader thread without costing a queue slot.
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, admitted));
  }
}

void DdsServer::HandleUpdate(const std::shared_ptr<Connection>& conn,
                             const WireRequest& wire) {
  CatalogEntry* entry = catalog_->Find(wire.graph);
  if (entry == nullptr) {
    WriteResponse(conn,
                  ErrorResponseJson(
                      wire.id_raw,
                      Status::NotFound("no graph named '" + wire.graph +
                                       "' in the catalog")));
    return;
  }
  const Status expected = CheckWeightedExpectation(wire, entry);
  if (!expected.ok()) {
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, expected));
    return;
  }
  Result<EdgeBatch> batch = ParseEdgeOps(wire.edges);
  if (!batch.ok()) {
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, batch.status()));
    return;
  }
  // Bounded apply: the reader thread must not block indefinitely behind
  // a long solve or compaction holding the entry lock. On timeout the
  // client sees a retryable UNAVAILABLE and this connection keeps
  // serving other frames.
  Result<CatalogEntry::UpdateResult> applied =
      entry->ApplyEdgeBatch(batch.value(), options_.update_timeout_s);
  if (!applied.ok()) {
    WriteResponse(conn, ErrorResponseJson(wire.id_raw, applied.status()));
    return;
  }
  // Reclaim the graph's cached responses before the client sees the ack:
  // the version key already makes stale entries unreachable, but an
  // acked update is the natural point to return their bytes. Ordering
  // (invalidate before WriteResponse) keeps the no-stale-after-ack
  // argument entirely on the version bump inside ApplyEdgeBatch.
  scheduler_.InvalidateGraph(wire.graph);
  WriteResponse(conn, UpdateResponseJson(wire, applied.value()));
}

void DdsServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                              const std::string& json) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A vanished client makes this fail; that is the client's problem, not
  // grounds to kill the server.
  (void)WriteFrame(conn->socket.fd(), json);
}

void DdsServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // 1. No new connections: shutting the listener down unblocks accept.
  //    Shutdown only reads the fd, so it is safe against the accept
  //    thread's concurrent use; the close (which overwrites the fd) must
  //    wait until that thread has been joined.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // 2. Drain: every admitted request solves and writes its response
  //    while the connection sockets are still fully open.
  scheduler_.Stop();
  // 3. Retire the readers: shut the sockets down (unblocks recv) and
  //    wait for every ConnectionLoop to check out.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) conn->socket.ShutdownBoth();
    conn_cv_.wait(lock, [this] { return active_readers_ == 0; });
  }
}

}  // namespace ddsgraph
