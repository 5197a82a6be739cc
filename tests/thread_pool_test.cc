#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace ddsgraph {
namespace {

TEST(ThreadPoolTest, SingleWorkerRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1);
  std::vector<int64_t> order;
  pool.ParallelFor(5, [&](int64_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NonPositiveAndTinyCounts) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int64_t i, int worker) {
    EXPECT_EQ(i, 0);
    EXPECT_EQ(worker, 0);  // n == 1 runs inline on the caller
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](int64_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_workers());
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, RunOnAllWorkersRunsBodyOncePerWorker) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> per_worker(3);
  pool.RunOnAllWorkers([&](int worker) {
    per_worker[static_cast<size_t>(worker)].fetch_add(1);
  });
  for (int w = 0; w < 3; ++w) EXPECT_EQ(per_worker[w].load(), 1) << w;
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i, int) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

}  // namespace
}  // namespace ddsgraph
