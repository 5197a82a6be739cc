#ifndef DDSGRAPH_SERVE_SERVER_H_
#define DDSGRAPH_SERVE_SERVER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "serve/catalog.h"
#include "serve/scheduler.h"
#include "util/socket.h"
#include "util/status.h"

/// \file
/// The long-lived DDS serving daemon (DESIGN.md §13).
///
/// `DdsServer` is the wire front-end over a `GraphCatalog` and a
/// `RequestScheduler`: it listens on one TCP socket, speaks the framed
/// JSON protocol of serve/protocol.h, and turns each request frame into a
/// scheduler submission whose completion callback writes the response
/// frame. One OS thread per connection does the (blocking) frame reads;
/// all solving happens on the scheduler's workers, so a slow solve never
/// stalls other connections' admissions.
///
/// Error handling at the edge: a malformed JSON payload gets an error
/// response and the connection lives on (frame boundaries are intact); a
/// malformed *frame* desynchronizes the byte stream, so the connection is
/// dropped. Admission rejections (unknown graph, bad request, full
/// queue) are written synchronously from the reader thread — under
/// overload the server answers "UNAVAILABLE" at wire speed without
/// touching a worker.
///
/// `Stop()` is a drain, not an abort: stop accepting connections and
/// admissions, let every already-admitted request finish and write its
/// response, then unblock and retire the connection threads. A client
/// that saw its request admitted always receives a response before the
/// socket dies.

namespace ddsgraph {

struct WireRequest;  // serve/protocol.h

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick an ephemeral port (tests, benchmarks)
  SchedulerOptions scheduler;
  /// Bound on how long an `update` may wait for a graph's entry lock
  /// (a long solve or compaction holds it). On expiry the client gets a
  /// retryable UNAVAILABLE instead of wedging the reader thread — the
  /// connection keeps serving other verbs. <= 0 waits forever (the
  /// pre-durability behavior).
  double update_timeout_s = 5;
};

class DdsServer {
 public:
  /// The catalog must be fully populated and outlive the server. Non-const
  /// because the `update` verb streams edge batches into catalog entries;
  /// entry-level locking makes that safe against in-flight solves.
  DdsServer(GraphCatalog* catalog, ServerOptions options);
  ~DdsServer();

  DdsServer(const DdsServer&) = delete;
  DdsServer& operator=(const DdsServer&) = delete;

  /// Binds, starts the scheduler and the accept loop. Returns the bound
  /// port (== options.port unless that was 0).
  Result<int> Start();

  /// Drain shutdown (see the file comment). Idempotent.
  void Stop();

  int port() const { return port_; }
  /// Scheduler observability for the daemon's stats line.
  const RequestScheduler& scheduler() const { return scheduler_; }

 private:
  /// One client connection; shared between its reader thread and any
  /// in-flight completion callbacks, so the fd outlives both (no close /
  /// fd-reuse race — the socket closes when the last reference drops).
  struct Connection {
    UniqueSocket socket;
    std::mutex write_mu;  ///< serializes response frames on this socket
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& payload);
  /// The `update` verb: parse the ops string, stream the batch into the
  /// named entry, echo the new version (synchronous, reader thread).
  void HandleUpdate(const std::shared_ptr<Connection>& conn,
                    const WireRequest& wire);
  static void WriteResponse(const std::shared_ptr<Connection>& conn,
                            const std::string& json);

  GraphCatalog* const catalog_;
  const ServerOptions options_;
  RequestScheduler scheduler_;
  UniqueSocket listener_;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;  ///< signaled when a reader retires
  std::set<std::shared_ptr<Connection>> connections_;  ///< guarded by conn_mu_
  int active_readers_ = 0;                             ///< guarded by conn_mu_
  bool started_ = false;
  bool stopping_ = false;  ///< guarded by conn_mu_
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_SERVE_SERVER_H_
