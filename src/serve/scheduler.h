#ifndef DDSGRAPH_SERVE_SCHEDULER_H_
#define DDSGRAPH_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/catalog.h"
#include "serve/response_cache.h"
#include "util/status.h"
#include "util/timer.h"

/// \file
/// The serving daemon's request scheduler (DESIGN.md §13, §15).
///
/// A bounded admission queue drained by `workers` plain threads: each
/// popped request solves on its catalog entry's hot engine (serialized
/// per entry by the entry mutex), and the completion callback fires from
/// the worker thread. The queue
/// bound is the backpressure mechanism — `Submit` on a full queue returns
/// `kUnavailable` immediately instead of stalling the caller, so an
/// overloaded server degrades into fast rejections rather than unbounded
/// memory growth and collapsing latency.
///
/// Three admission fast paths sit in front of the queue (DESIGN.md §15),
/// all gated on `SchedulerOptions::cache_bytes > 0` and all restricted to
/// *cachable* requests (no deadline, no progress callback — see
/// `IsCachableRequest`):
///
///  - **Response cache**: a `ResponseCache` keyed on (graph, entry
///    version, canonical request). A hit answers synchronously on the
///    submitting thread — no queue slot, no worker, bit-identical to the
///    solve it memoizes because the version in the key pins the exact
///    logical graph.
///  - **Single-flight coalescing**: a cachable miss that matches a flight
///    already admitted (same graph, same admitted version, same canonical
///    request) attaches to it as a waiter instead of taking a queue slot;
///    one solve fans its solution out to every waiter, each marked
///    `coalesced`.
///  - **Same-graph batching**: a worker that picks up a flight also pulls
///    up to `batch_max - 1` more queued flights for the same (entry,
///    admitted version) and runs them back to back, so the group shares
///    the entry's warm engine (and any overlay compaction) instead of
///    interleaving with other graphs' flights across workers. Applies to
///    all requests, cachable or not.
///
/// Deadlines are end-to-end: `ServeRequest::request.deadline_seconds` is
/// the budget from *admission*, so time spent queued is charged against
/// it. A worker that dequeues an already-expired request still runs the
/// solve with a zero remaining budget — the anytime exact engine then
/// returns its incumbent with a certified [lower, upper] bracket at the
/// first control check instead of the scheduler inventing an empty
/// "timed out" answer. Coalesced waiters are charged the same way: their
/// `stats.queue_ms` runs from their own admission to the shared solve's
/// completion, minus the solve time itself (deadlined requests never
/// coalesce, so the charge is reporting, not budget).
///
/// Counter semantics: `accepted`/`served` count the asynchronous path —
/// flights plus attached waiters — and stay equal after a drain. Cache
/// hits are answered at admission and appear only in the cache counters;
/// `coalesced`, `batches` and `batched` count the other two fast paths.
///
/// Shutdown drains: after `Stop()` no new request is admitted, but every
/// request already admitted is solved and its callback fired before
/// `Stop()` returns. A client that got an OK admission always gets a
/// response.

namespace ddsgraph {

/// One admitted unit of work: a named catalog graph plus the full engine
/// request. `request.progress` is honored (the scheduler composes it with
/// its own deadline mapping), which is how tests gate a worker
/// deterministically.
struct ServeRequest {
  std::string graph;   ///< catalog name
  DdsRequest request;  ///< algorithm + options; deadline is end-to-end
};

/// What the completion callback receives. The serve provenance lives in
/// `solution.stats` on every path, error responses included: the latency
/// split `queue_ms` (admission → worker pickup) / `solve_ms` (worker
/// pickup → solve return), both 0 on a cache hit, and the `cache_hit` /
/// `coalesced` markers. On a non-OK `status` the rest of the solution is
/// default-constructed.
struct ServeResponse {
  Status status;
  DdsSolution solution;
  const CatalogEntry* entry = nullptr;  ///< resolved catalog entry
  /// Entry version the solution corresponds to — what the response cache
  /// keys on, and what clients compare against update acks to check
  /// freshness.
  int64_t version = 0;
};

using ServeCallback = std::function<void(ServeResponse)>;

struct SchedulerOptions {
  /// Worker threads that pull from the queue (>= 1).
  int workers = 2;
  /// Max requests admitted-but-not-yet-picked-up (>= 1). Beyond it,
  /// Submit rejects with kUnavailable. Coalesced waiters don't occupy
  /// slots (they add no solve work).
  int queue_capacity = 64;
  /// Response cache byte budget. 0 (the default) disables the cache AND
  /// single-flight coalescing — the historical always-solve behavior.
  size_t cache_bytes = 0;
  /// Window behind the cache's `recent_evictions` counter (the health
  /// verb's cache_evicting signal); see ResponseCacheOptions.
  double cache_eviction_window_s = 10.0;
  /// Max flights one worker runs back to back per same-(entry, version)
  /// group; 1 disables batching.
  int batch_max = 8;
};

class RequestScheduler {
 public:
  /// The catalog must be fully populated and must outlive the scheduler.
  RequestScheduler(const GraphCatalog* catalog, SchedulerOptions options);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Starts the worker threads. Must be called once before Submit.
  void Start();

  /// Admission control. Validates cheaply (known graph, well-formed
  /// request), then tries the cache (hit: `done` fires synchronously on
  /// this thread before Submit returns), then single-flight attach, then
  /// enqueues; on the asynchronous paths the callback later fires exactly
  /// once from a worker thread. Errors:
  ///   kNotFound         unknown graph name
  ///   kInvalidArgument  request invalid (ValidateRequest)
  ///   kUnavailable      queue full, or scheduler stopped/stopping
  /// On any error the callback is NOT invoked — admission rejections are
  /// synchronous, which is what makes them cheap under overload.
  Status Submit(ServeRequest request, ServeCallback done);

  /// Stops admissions, drains every queued request (callbacks fire),
  /// then joins the workers. Idempotent.
  void Stop();

  /// Drops every cached response for `graph`, any version. The serve
  /// layer calls this on a successful `update` — redundant for
  /// correctness (the version key already isolates stale entries) but it
  /// reclaims their bytes immediately. Returns entries dropped; no-op
  /// (0) when the cache is disabled.
  int64_t InvalidateGraph(const std::string& graph);

  /// Submissions admitted to the asynchronous path (queue slot taken or
  /// waiter attached). Cache hits are excluded — they are answered at
  /// admission and counted by the cache.
  int64_t accepted() const;
  /// Requests whose callbacks have completed (waiters included).
  int64_t served() const;
  /// Submissions rejected by backpressure (queue full).
  int64_t rejected() const;
  /// Currently queued flights (admitted, not yet picked up).
  int64_t queued() const;
  /// Requests that attached to another request's in-flight solve.
  int64_t coalesced() const;
  /// Same-(entry, version) groups of >= 2 flights run back to back, and
  /// the total flights that ran inside such groups.
  int64_t batches() const;
  int64_t batched() const;
  /// True between Start() and Stop() — the health verb's signal.
  bool accepting() const;
  /// Admission queue capacity (immutable after construction). With
  /// queued(), the health verb's saturation signal: queued at >= 80% of
  /// capacity reports the server as degraded before Submit starts
  /// rejecting outright.
  int queue_capacity() const { return options_.queue_capacity; }

  /// The response cache; nullptr when `cache_bytes == 0`.
  const ResponseCache* response_cache() const { return cache_.get(); }
  /// Cache counters, all zero when the cache is disabled (keeps the
  /// server_stats plumbing branch-free).
  ResponseCacheCounters cache_counters() const;

 private:
  /// One admission-to-completion callback registration: the leader's at
  /// flight creation, plus one per coalesced follower.
  struct Waiter {
    ServeCallback done;
    WallTimer queued_at;  ///< started at this request's admission
    bool coalesced = false;
  };
  /// One queued solve plus everyone waiting on it. waiters[0] is the
  /// admitting request; followers only attach while the flight is in
  /// inflight_ (cachable flights only).
  struct Flight {
    ServeRequest request;
    const CatalogEntry* entry = nullptr;
    std::string request_key;  ///< canonical request key; "" = uncachable
    std::string flight_key;   ///< inflight_ key; "" = uncachable
    int64_t admit_version = 0;
    std::vector<Waiter> waiters;
  };

  void WorkerLoop();
  void Process(std::unique_ptr<Flight> flight);

  const GraphCatalog* const catalog_;
  const SchedulerOptions options_;
  const std::unique_ptr<ResponseCache> cache_;  ///< null when disabled

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for queue/stop
  std::deque<std::unique_ptr<Flight>> queue_;  ///< guarded by mu_
  /// Cachable flights admitted and not yet completed, by flight_key —
  /// the single-flight attach point. Pointees owned by queue_ or by the
  /// processing worker; erased (under mu_) before the owner releases
  /// them. Guarded by mu_.
  std::unordered_map<std::string, Flight*> inflight_;
  bool started_ = false;              ///< guarded by mu_
  bool stopping_ = false;             ///< guarded by mu_
  int64_t accepted_ = 0;              ///< guarded by mu_
  int64_t served_ = 0;                ///< guarded by mu_
  int64_t rejected_ = 0;              ///< guarded by mu_
  int64_t coalesced_ = 0;             ///< guarded by mu_
  int64_t batches_ = 0;               ///< guarded by mu_
  int64_t batched_ = 0;               ///< guarded by mu_
  /// Each runs WorkerLoop; declared last, after everything they use.
  std::vector<std::thread> workers_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_SERVE_SCHEDULER_H_
