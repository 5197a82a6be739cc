#ifndef DDSGRAPH_SERVE_CLIENT_H_
#define DDSGRAPH_SERVE_CLIENT_H_

#include <cstdint>
#include <random>
#include <string>

#include "util/socket.h"
#include "util/status.h"

/// \file
/// Synchronous client for the dds_server protocol, with optional
/// self-healing (DESIGN.md §16).
///
/// One `ServeClient` owns one connection and runs the strict closed-loop
/// request/response cycle the load benchmark and the serve tests need:
/// `Call` writes one framed request and blocks for one framed response.
/// Not thread-safe — one client per thread, which is exactly the
/// closed-loop benchmark's shape (N clients = N connections = N threads).
///
/// `CallRetrying` is the self-healing variant: it reconnects and retries
/// with capped exponential backoff + deterministic jitter on the two
/// retryable failure classes — transport loss (server restarted, read
/// timed out, connect refused) and `UNAVAILABLE` error *responses*
/// (admission queue full, entry busy, draining). It must only carry
/// idempotent requests: a solve answered twice is the same solve, but a
/// retried `update` could apply its batch twice (weighted inserts
/// merge-sum, so the duplicate is not a no-op). tests/serve_retry_test.cc
/// rides it through a mid-run server restart.

namespace ddsgraph {

struct ServeClientOptions {
  /// Bound on Connect itself (0 = OS default, which can be minutes).
  double connect_timeout_s = 5;
  /// Bound on waiting for one response frame; 0 = wait forever. On
  /// expiry the connection is dead (mid-frame position is unknowable) —
  /// CallRetrying reconnects, plain Call surfaces kUnavailable.
  double read_timeout_s = 0;
  /// Total attempts CallRetrying makes (first try included).
  int max_attempts = 8;
  /// Backoff ladder: min(initial * 2^k, max), each scaled by a jitter
  /// factor in [0.5, 1) so a fleet of retrying clients desynchronizes.
  double backoff_initial_ms = 25;
  double backoff_max_ms = 1000;
  /// Seeds the jitter stream (deterministic per client for test replay).
  uint64_t jitter_seed = 1;
};

class ServeClient {
 public:
  ServeClient() : ServeClient(ServeClientOptions{}) {}
  explicit ServeClient(const ServeClientOptions& options)
      : options_(options), rng_(options.jitter_seed) {}

  /// Connects to a running server and remembers host:port for later
  /// reconnects. kUnavailable when nothing is listening (retryable).
  Status Connect(const std::string& host, int port);

  /// Sends `request_json` as one frame and waits for the response frame.
  /// kUnavailable when the server closed the connection or the read
  /// timed out; after any error the connection should be considered
  /// dead.
  Result<std::string> Call(const std::string& request_json);

  /// Self-healing Call (see the file comment). Returns the first
  /// non-retryable outcome, or the last error once `max_attempts` are
  /// exhausted. Idempotent requests only.
  Result<std::string> CallRetrying(const std::string& request_json);

  /// Closes the connection (also implied by destruction).
  void Close() { socket_.Close(); }
  bool connected() const { return socket_.valid(); }

  /// Successful connection re-establishments after the first Connect.
  int64_t reconnects() const { return reconnects_; }
  /// CallRetrying attempts beyond each call's first try.
  int64_t retries() const { return retries_; }

 private:
  Status ConnectInternal();
  /// Sleeps the k-th backoff delay (capped exponential + jitter).
  void Backoff(int attempt);

  ServeClientOptions options_;
  UniqueSocket socket_;
  std::string host_;
  int port_ = 0;
  bool ever_connected_ = false;
  int64_t reconnects_ = 0;
  int64_t retries_ = 0;
  std::mt19937_64 rng_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_SERVE_CLIENT_H_
