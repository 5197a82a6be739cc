#include "util/bucket_queue.h"

#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ddsgraph {
namespace {

TEST(BucketQueueTest, StartsEmpty) {
  BucketQueue q(10, 5);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_FALSE(q.PopMin().has_value());
  EXPECT_FALSE(q.PeekMinKey().has_value());
}

TEST(BucketQueueTest, InsertAndPopInKeyOrder) {
  BucketQueue q(5, 10);
  q.Insert(0, 7);
  q.Insert(1, 3);
  q.Insert(2, 5);
  ASSERT_TRUE(q.PeekMinKey().has_value());
  EXPECT_EQ(*q.PeekMinKey(), 3);
  auto p = q.PopMin();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 1u);
  EXPECT_EQ(p->second, 3);
  p = q.PopMin();
  EXPECT_EQ(p->first, 2u);
  p = q.PopMin();
  EXPECT_EQ(p->first, 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueueTest, DecreaseKeyMovesItemForward) {
  BucketQueue q(3, 10);
  q.Insert(0, 9);
  q.Insert(1, 8);
  q.DecreaseKey(0, 1);
  auto p = q.PopMin();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 0u);
  EXPECT_EQ(p->second, 1);
}

TEST(BucketQueueTest, DecreaseKeyBelowCursorIsFound) {
  BucketQueue q(3, 10);
  q.Insert(0, 5);
  q.Insert(1, 9);
  EXPECT_EQ(q.PopMin()->first, 0u);  // cursor advanced to 5
  q.DecreaseKey(1, 2);               // below the cursor
  ASSERT_TRUE(q.PeekMinKey().has_value());
  EXPECT_EQ(*q.PeekMinKey(), 2);
  EXPECT_EQ(q.PopMin()->first, 1u);
}

TEST(BucketQueueTest, RemoveSkipsItem) {
  BucketQueue q(3, 10);
  q.Insert(0, 1);
  q.Insert(1, 2);
  q.Remove(0);
  EXPECT_FALSE(q.Contains(0));
  EXPECT_TRUE(q.Contains(1));
  auto p = q.PopMin();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueueTest, DecrementHelper) {
  BucketQueue q(2, 10);
  q.Insert(0, 4);
  q.Decrement(0);
  q.Decrement(0);
  EXPECT_EQ(q.KeyOf(0), 2);
}

TEST(BucketQueueTest, ZeroKeySupported) {
  BucketQueue q(2, 10);
  q.Insert(0, 0);
  auto p = q.PopMin();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->second, 0);
}

// Buckets are intrusive lists: unlinking an item from the head, middle or
// tail of its bucket must leave the others in their pop order (latest
// link first).
TEST(BucketQueueTest, UnlinkHeadMiddleAndTailOfABucket) {
  for (uint32_t victim = 0; victim < 3; ++victim) {
    BucketQueue q(4, 10);
    q.Insert(0, 4);  // tail of bucket 4
    q.Insert(1, 4);  // middle
    q.Insert(2, 4);  // head
    q.Insert(3, 7);
    q.Remove(victim);
    std::vector<uint32_t> order;
    while (const auto p = q.PopMin()) order.push_back(p->first);
    std::vector<uint32_t> want;
    for (uint32_t v : {2u, 1u, 0u}) {
      if (v != victim) want.push_back(v);
    }
    want.push_back(3);
    EXPECT_EQ(order, want) << "victim " << victim;
  }
  for (uint32_t mover = 0; mover < 3; ++mover) {
    BucketQueue q(3, 10);
    q.Insert(0, 4);
    q.Insert(1, 4);
    q.Insert(2, 4);
    q.DecreaseKey(mover, 2);
    EXPECT_EQ(q.PopMin()->first, mover);
    std::vector<uint32_t> order;
    while (const auto p = q.PopMin()) order.push_back(p->first);
    std::vector<uint32_t> want;
    for (uint32_t v : {2u, 1u, 0u}) {
      if (v != mover) want.push_back(v);
    }
    EXPECT_EQ(order, want) << "mover " << mover;
  }
}

TEST(BucketQueueTest, EqualKeyDecreaseKeepsBucketPosition) {
  BucketQueue q(3, 10);
  q.Insert(0, 5);
  q.Insert(1, 5);
  q.DecreaseKey(0, 5);  // no-op: 1 was linked later and still pops first
  EXPECT_EQ(q.PopMin()->first, 1u);
  EXPECT_EQ(q.PopMin()->first, 0u);
}

TEST(BucketQueueTest, PeekMinKeyAfterRemovingTheMinimum) {
  BucketQueue q(4, 10);
  q.Insert(0, 2);
  q.Insert(1, 6);
  q.Insert(2, 9);
  EXPECT_EQ(q.PeekMinKey(), std::optional<int64_t>(2));
  q.Remove(0);
  EXPECT_EQ(q.PeekMinKey(), std::optional<int64_t>(6));
  q.Remove(1);
  EXPECT_EQ(q.PeekMinKey(), std::optional<int64_t>(9));
  q.Insert(3, 1);  // below the advanced cursor
  EXPECT_EQ(q.PeekMinKey(), std::optional<int64_t>(1));
  q.Remove(3);
  q.Remove(2);
  EXPECT_FALSE(q.PeekMinKey().has_value());
  EXPECT_FALSE(q.PopMin().has_value());
}

// Randomized comparison against a reference implementation (std::map from
// item to key, min selection by scan).
TEST(BucketQueueTest, MatchesReferenceUnderRandomWorkload) {
  constexpr uint32_t kItems = 64;
  constexpr int64_t kMaxKey = 40;
  Rng rng(2024);
  BucketQueue q(kItems, kMaxKey);
  std::map<uint32_t, int64_t> ref;

  auto ref_min_key = [&]() -> std::optional<int64_t> {
    std::optional<int64_t> best;
    for (const auto& [item, key] : ref) {
      if (!best.has_value() || key < *best) best = key;
    }
    return best;
  };

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.NextBounded(4));
    if (op == 0) {  // insert
      const uint32_t item = static_cast<uint32_t>(rng.NextBounded(kItems));
      if (ref.count(item) == 0) {
        const int64_t key = static_cast<int64_t>(rng.NextBounded(kMaxKey + 1));
        q.Insert(item, key);
        ref[item] = key;
      }
    } else if (op == 1) {  // decrease
      if (!ref.empty()) {
        auto it = ref.begin();
        std::advance(it, rng.NextBounded(ref.size()));
        if (it->second > 0) {
          const int64_t new_key =
              static_cast<int64_t>(rng.NextBounded(it->second));
          q.DecreaseKey(it->first, new_key);
          it->second = new_key;
        }
      }
    } else if (op == 2) {  // remove
      if (!ref.empty()) {
        auto it = ref.begin();
        std::advance(it, rng.NextBounded(ref.size()));
        q.Remove(it->first);
        ref.erase(it);
      }
    } else {  // pop min: keys must match (items may tie arbitrarily)
      const auto got = q.PopMin();
      const auto want_key = ref_min_key();
      ASSERT_EQ(got.has_value(), want_key.has_value());
      if (got.has_value()) {
        EXPECT_EQ(got->second, *want_key);
        EXPECT_EQ(ref[got->first], got->second);
        ref.erase(got->first);
      }
    }
    ASSERT_EQ(q.Size(), ref.size());
  }
}

}  // namespace
}  // namespace ddsgraph
