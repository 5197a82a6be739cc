#ifndef DDSGRAPH_UTIL_THREAD_POOL_H_
#define DDSGRAPH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Fixed-size shared-memory thread pool for the parallel solve layer
/// (DESIGN.md §11).
///
/// Every parallelizable work shape in the library is coarse-grained — a
/// whole peel walk per range of ladder rungs, a whole ratio probe per
/// interval, a whole decomposition peel per speculative x — so the pool is
/// deliberately simple: `threads` workers total, where the *calling*
/// thread is worker 0 and `threads - 1` spawned threads are workers
/// 1..threads-1. A pool of size <= 1 spawns nothing and runs every
/// operation inline on the caller, so each solver has one code path and
/// `threads = 1` (the default everywhere) is simply that path on one
/// worker.
///
/// Determinism contract: the pool schedules *which worker* computes each
/// work item dynamically (atomic counter), but callers are expected to
/// keep all cross-item decisions out of the workers — either by writing
/// results into per-index slots and folding them in index order on the
/// caller afterwards, or by keeping per-worker bests and merging them
/// under a total order that does not mention the worker id. Both
/// patterns make the final result independent of the schedule; every
/// parallel solver in the library uses one of them (DESIGN.md §11).
///
/// One job runs at a time; the pool is not reentrant (a worker must not
/// call back into its own pool). Workers park on a condition variable
/// between jobs, so a pool owned for a whole solve costs nothing while
/// its owner runs sequential phases.

namespace ddsgraph {

class ThreadPool {
 public:
  /// Creates a pool of `threads` workers total (caller included), so
  /// `threads - 1` std::threads are spawned. `threads <= 1` spawns none.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count including the caller; always >= 1.
  int num_workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs `body(worker)` once per worker concurrently (the caller runs
  /// worker 0) and blocks until every invocation returns. This is the
  /// primitive behind ParallelFor and the work-sharing loops of the exact
  /// engine's intervals and the peel ladder's rung tree.
  void RunOnAllWorkers(const std::function<void(int)>& body);

  /// Runs `fn(index, worker)` for every index in [0, n), distributing
  /// indices dynamically across the workers, and blocks until done. With
  /// one worker (or n <= 1) the loop runs inline in index order.
  void ParallelFor(int64_t n, const std::function<void(int64_t, int)>& fn);

 private:
  void WorkerLoop(int worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here between jobs
  std::condition_variable done_cv_;  ///< RunOnAllWorkers waits here
  const std::function<void(int)>* job_ = nullptr;  ///< guarded by mu_
  uint64_t job_epoch_ = 0;                         ///< guarded by mu_
  int unfinished_ = 0;                             ///< guarded by mu_
  bool shutdown_ = false;                          ///< guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_THREAD_POOL_H_
