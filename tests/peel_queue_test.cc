#include "util/peel_queue.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// The policy split is a compile-time contract: the unit policy *is* the
// bucket queue (zero behavioral drift possible), the weighted policy is
// the runtime hybrid that picks the bucket array for dense key ranges and
// the range-independent heap otherwise.
static_assert(std::is_same_v<PeelQueue<Digraph>, BucketQueue>);
static_assert(std::is_same_v<PeelQueue<WeightedDigraph>, HybridPeelQueue>);

TEST(LazyHeapQueueTest, BasicInsertPopOrdering) {
  LazyHeapQueue q(5, 100);
  q.Insert(0, 30);
  q.Insert(1, 10);
  q.Insert(2, 20);
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.PeekMinKey(), std::optional<int64_t>(10));
  auto popped = q.PopMin();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->first, 1u);
  EXPECT_EQ(popped->second, 10);
  q.DecreaseKey(0, 5);
  popped = q.PopMin();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->first, 0u);
  EXPECT_EQ(popped->second, 5);
  q.Remove(2);
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.PopMin().has_value());
  EXPECT_FALSE(q.PeekMinKey().has_value());
}

TEST(LazyHeapQueueTest, HugeKeysNeedNoKeyRangeAllocation) {
  // The reason the weighted policy exists: keys near 2^40 would demand a
  // terabyte-scale bucket array but are free for the heap.
  const int64_t big = int64_t{1} << 40;
  LazyHeapQueue q(3, big);
  q.Insert(0, big);
  q.Insert(1, big - 7);
  q.Insert(2, 3);
  EXPECT_EQ(q.PopMin()->second, 3);
  q.DecreaseKey(0, big - 9);
  EXPECT_EQ(q.PopMin()->first, 0u);
  EXPECT_EQ(q.PopMin()->first, 1u);
}

// The heart of the bit-identity story: the heap reproduces the bucket
// queue's extraction order — including LIFO tie-breaks among equal keys
// and stale-entry skipping — on arbitrary monotone operation sequences.
TEST(PeelQueueTest, HeapMatchesBucketOnRandomMonotoneSequences) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 1009 + 17);
    const uint32_t n = 40;
    const int64_t max_key = 60;
    BucketQueue bucket(n, max_key);
    LazyHeapQueue heap(n, max_key);
    std::vector<int64_t> key(n, -1);

    for (uint32_t v = 0; v < n; ++v) {
      const int64_t k = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(max_key) + 1));
      bucket.Insert(v, k);
      heap.Insert(v, k);
      key[v] = k;
    }

    int64_t live = n;
    int64_t ops = 0;
    while (live > 0 && ops < 4000) {
      ++ops;
      const uint64_t roll = rng.NextBounded(10);
      if (roll < 5) {
        // Decrease a random present item's key.
        const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
        if (key[v] < 0) continue;
        const int64_t delta =
            static_cast<int64_t>(rng.NextBounded(3));  // 0..2 (0 = no-op)
        const int64_t nk = std::max<int64_t>(0, key[v] - delta);
        bucket.DecreaseKey(v, nk);
        heap.DecreaseKey(v, nk);
        key[v] = nk;
      } else if (roll < 7) {
        // Remove a random present item.
        const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
        if (key[v] < 0) continue;
        bucket.Remove(v);
        heap.Remove(v);
        key[v] = -1;
        --live;
      } else if (roll == 7) {
        const auto bk = bucket.PeekMinKey();
        const auto hk = heap.PeekMinKey();
        EXPECT_EQ(bk, hk) << "seed " << seed << " op " << ops;
      } else {
        // Pop — the popped *item* must match, not just the key.
        const auto bp = bucket.PopMin();
        const auto hp = heap.PopMin();
        ASSERT_EQ(bp.has_value(), hp.has_value())
            << "seed " << seed << " op " << ops;
        if (bp.has_value()) {
          EXPECT_EQ(bp->first, hp->first) << "seed " << seed << " op " << ops;
          EXPECT_EQ(bp->second, hp->second)
              << "seed " << seed << " op " << ops;
          key[bp->first] = -1;
          --live;
        }
      }
      EXPECT_EQ(bucket.Size(), heap.Size());
      EXPECT_EQ(bucket.Empty(), heap.Empty());
    }
    // Drain what is left; the full tail order must agree too.
    while (true) {
      const auto bp = bucket.PopMin();
      const auto hp = heap.PopMin();
      ASSERT_EQ(bp.has_value(), hp.has_value()) << "seed " << seed;
      if (!bp.has_value()) break;
      EXPECT_EQ(bp->first, hp->first) << "seed " << seed;
      EXPECT_EQ(bp->second, hp->second) << "seed " << seed;
    }
  }
}

// Items leave (Remove or PopMin) and come back at the key they left with
// while other items are linked into the same buckets in between. The
// heap keeps stale entries for the departed items; the bucket queue
// unlinks them. Both must still pop the same items in the same order.
TEST(PeelQueueTest, HeapMatchesBucketWithReinsertsAtTheSameKey) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 7919 + 3);
    const uint32_t n = 24;
    const int64_t max_key = 12;  // few keys: buckets hold several items
    BucketQueue bucket(n, max_key);
    LazyHeapQueue heap(n, max_key);
    std::vector<int64_t> key(n, -1);
    std::vector<int64_t> last_key(n, -1);  // key the item last left with
    auto insert = [&](uint32_t v, int64_t k) {
      bucket.Insert(v, k);
      heap.Insert(v, k);
      key[v] = k;
    };
    auto leave = [&](uint32_t v) {
      last_key[v] = key[v];
      key[v] = -1;
    };

    for (int64_t ops = 0; ops < 3000; ++ops) {
      const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
      const uint64_t roll = rng.NextBounded(10);
      if (roll < 3) {
        if (key[v] >= 0) continue;
        // Mostly back at the key it left with, otherwise anywhere.
        const bool same = last_key[v] >= 0 && rng.NextBounded(4) != 0;
        insert(v, same ? last_key[v]
                       : static_cast<int64_t>(rng.NextBounded(
                             static_cast<uint64_t>(max_key) + 1)));
      } else if (roll < 5) {
        if (key[v] < 0) continue;
        const int64_t nk = std::max<int64_t>(
            0, key[v] - static_cast<int64_t>(rng.NextBounded(3)));
        bucket.DecreaseKey(v, nk);
        heap.DecreaseKey(v, nk);
        key[v] = nk;
      } else if (roll < 7) {
        if (key[v] < 0) continue;
        bucket.Remove(v);
        heap.Remove(v);
        leave(v);
      } else if (roll == 7) {
        EXPECT_EQ(bucket.PeekMinKey(), heap.PeekMinKey())
            << "seed " << seed << " op " << ops;
      } else {
        const auto bp = bucket.PopMin();
        const auto hp = heap.PopMin();
        ASSERT_EQ(bp.has_value(), hp.has_value())
            << "seed " << seed << " op " << ops;
        if (bp.has_value()) {
          ASSERT_EQ(bp->first, hp->first) << "seed " << seed << " op " << ops;
          ASSERT_EQ(bp->second, hp->second)
              << "seed " << seed << " op " << ops;
          leave(bp->first);
        }
      }
      ASSERT_EQ(bucket.Size(), heap.Size());
      for (uint32_t u = 0; u < n; ++u) {
        ASSERT_EQ(bucket.Contains(u), key[u] >= 0);
        ASSERT_EQ(heap.Contains(u), key[u] >= 0);
      }
    }
    while (true) {
      const auto bp = bucket.PopMin();
      const auto hp = heap.PopMin();
      ASSERT_EQ(bp.has_value(), hp.has_value()) << "seed " << seed;
      if (!bp.has_value()) break;
      EXPECT_EQ(bp->first, hp->first) << "seed " << seed;
      EXPECT_EQ(bp->second, hp->second) << "seed " << seed;
    }
  }
}

TEST(HybridPeelQueueTest, SelectsBucketForDenseKeyRangesAndHeapForWide) {
  // Dense regime: unit-weight lifts have max key <= n.
  HybridPeelQueue dense(1000, 999);
  EXPECT_TRUE(dense.uses_bucket_backend());
  // Wide regime: heavy-tailed weighted degrees, max key >> n.
  HybridPeelQueue wide(1000, int64_t{1} << 40);
  EXPECT_FALSE(wide.uses_bucket_backend());
  // The threshold is a function of (n, max_key) alone.
  EXPECT_TRUE(HybridPeelQueue::UsesBucket(16, 4096));
  EXPECT_FALSE(HybridPeelQueue::UsesBucket(16, 4097));
  EXPECT_TRUE(HybridPeelQueue::UsesBucket(1u << 20, 1 << 22));
}

TEST(HybridPeelQueueTest, BothBackendsMatchBucketPopOrder) {
  // Drive a bucket queue, a hybrid-on-bucket and a hybrid-on-heap with
  // the same monotone sequence; all three must extract identically. The
  // hybrid's backend choice is forced via the advertised max_key (the
  // keys themselves stay small so all three accept them).
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 131 + 7);
    const uint32_t n = 30;
    const int64_t max_key = 50;
    BucketQueue reference(n, max_key);
    HybridPeelQueue on_bucket(n, max_key);
    HybridPeelQueue on_heap(n, int64_t{1} << 40);
    ASSERT_TRUE(on_bucket.uses_bucket_backend());
    ASSERT_FALSE(on_heap.uses_bucket_backend());
    std::vector<int64_t> key(n, -1);
    for (uint32_t v = 0; v < n; ++v) {
      const int64_t k = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(max_key) + 1));
      reference.Insert(v, k);
      on_bucket.Insert(v, k);
      on_heap.Insert(v, k);
      key[v] = k;
    }
    for (int64_t ops = 0; ops < 400; ++ops) {
      const uint64_t roll = rng.NextBounded(4);
      if (roll < 2) {
        const uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
        if (key[v] < 0) continue;
        const int64_t nk =
            std::max<int64_t>(0, key[v] - static_cast<int64_t>(
                                              rng.NextBounded(3)));
        reference.DecreaseKey(v, nk);
        on_bucket.DecreaseKey(v, nk);
        on_heap.DecreaseKey(v, nk);
        key[v] = nk;
      } else {
        const auto rp = reference.PopMin();
        const auto bp = on_bucket.PopMin();
        const auto hp = on_heap.PopMin();
        ASSERT_EQ(rp.has_value(), bp.has_value());
        ASSERT_EQ(rp.has_value(), hp.has_value());
        if (!rp.has_value()) break;
        EXPECT_EQ(rp->first, bp->first) << "seed " << seed;
        EXPECT_EQ(rp->first, hp->first) << "seed " << seed;
        EXPECT_EQ(rp->second, hp->second) << "seed " << seed;
        key[rp->first] = -1;
      }
    }
  }
}

TEST(PeelQueueTest, ReinsertAfterPopAndRemove) {
  BucketQueue bucket(4, 10);
  LazyHeapQueue heap(4, 10);
  for (uint32_t v = 0; v < 4; ++v) {
    bucket.Insert(v, 5);
    heap.Insert(v, 5);
  }
  // Pop one, remove one, re-insert the popped item at the same key: the
  // stale entries must be skipped identically afterwards.
  const auto bp = bucket.PopMin();
  const auto hp = heap.PopMin();
  ASSERT_TRUE(bp.has_value());
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(bp->first, hp->first);
  const uint32_t removed = bp->first == 0 ? 1 : 0;
  bucket.Remove(removed);
  heap.Remove(removed);
  bucket.Insert(bp->first, 5);
  heap.Insert(hp->first, 5);
  std::vector<uint32_t> bucket_order;
  std::vector<uint32_t> heap_order;
  while (const auto p = bucket.PopMin()) bucket_order.push_back(p->first);
  while (const auto p = heap.PopMin()) heap_order.push_back(p->first);
  EXPECT_EQ(bucket_order, heap_order);
}

}  // namespace
}  // namespace ddsgraph
