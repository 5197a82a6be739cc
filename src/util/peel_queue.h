#ifndef DDSGRAPH_UTIL_PEEL_QUEUE_H_
#define DDSGRAPH_UTIL_PEEL_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/bucket_queue.h"
#include "util/logging.h"

/// \file
/// Policy-selected peel priority queue (DESIGN.md §10).
///
/// Every peeling loop in the library repeatedly extracts an item of
/// minimum key while keys only decrease. Which structure is right depends
/// on the weight policy of the graph being peeled:
///
///   * Unit weights: keys are plain degrees — small dense integers bounded
///     by n — so the monotone BucketQueue (util/bucket_queue.h) gives O(1)
///     amortized operations and `PeelQueue<Digraph>` *is* BucketQueue
///     (static-asserted below), keeping the unweighted pipeline
///     bit-identical to the pre-policy code.
///   * Integer weights: keys are weighted degrees, bounded only by the
///     total edge weight W. A bucket array of size W is an O(W) allocation
///     per peel (and a cache disaster when weights are heavy-tailed), so
///     the weighted fallback is LazyHeapQueue — a lazy-deletion 4-ary
///     min-heap with O(log n) operations independent of W. But many
///     weighted graphs (all-weights-1 lifts, small multiplicities) have
///     weighted degrees that are still dense small integers, for which the
///     heap is a pure ~4-6x constant-factor loss (E3's
///     `unit_peel_overhead`). `PeelQueue<WeightedDigraph>` is therefore
///     HybridPeelQueue: it inspects the actual key bound at construction
///     and picks the bucket array whenever it is small enough to pay,
///     falling back to the heap only for genuinely wide key ranges.
///
/// LazyHeapQueue deliberately reproduces BucketQueue's *extraction order*,
/// not just its min-key semantics: entries are ordered by (key ascending,
/// push sequence descending), which is exactly the bucket array's
/// scan-lowest-bucket + pop-front-of-the-latest-link (LIFO within a
/// bucket) discipline. The heap stays lazy: a decrease-key pushes a new
/// entry and the old one is skipped later under the `key_[item] != entry
/// key` test, where the bucket queue unlinks the item in place. Two queues
/// driven by the same operation sequence therefore pop the same items in
/// the same order (cross-checked in tests/peel_queue_test.cc) — this is
/// what makes all-weights-1 weighted peels bit-identical to their
/// unweighted instantiations down to the tie-breaks, even though the two
/// policies run different structures.

namespace ddsgraph {

/// Min-priority queue over items {0..n-1} with the same interface and
/// extraction order as BucketQueue, but O(log n) per operation regardless
/// of the key range. Keys may only decrease while an item is present.
class LazyHeapQueue {
 public:
  /// Creates a queue for `n` items. `max_key` is accepted for interface
  /// parity with BucketQueue(n, max_key) and intentionally unused — not
  /// allocating proportional to the key range is the point of this policy.
  LazyHeapQueue(uint32_t n, int64_t max_key) : key_(n, kAbsent) {
    (void)max_key;
    heap_.reserve(n);
  }

  /// Inserts `item` with the given key. The item must be absent.
  void Insert(uint32_t item, int64_t key) {
    DCHECK_EQ(key_[item], kAbsent);
    DCHECK_GE(key, 0);
    key_[item] = key;
    Push(item, key);
    ++size_;
  }

  /// Lowers the key of a present item. `new_key` must be <= current key.
  /// An equal key is a no-op (no new entry), mirroring BucketQueue.
  void DecreaseKey(uint32_t item, int64_t new_key) {
    DCHECK_NE(key_[item], kAbsent);
    DCHECK_GE(new_key, 0);  // -1 would collide with the kAbsent sentinel
    DCHECK_LE(new_key, key_[item]);
    if (new_key == key_[item]) return;
    key_[item] = new_key;
    Push(item, new_key);  // old entry becomes stale
  }

  /// Convenience: decrease the key by one.
  void Decrement(uint32_t item) { DecreaseKey(item, key_[item] - 1); }

  /// Removes an item from the queue (its heap entries become stale).
  void Remove(uint32_t item) {
    DCHECK_NE(key_[item], kAbsent);
    key_[item] = kAbsent;
    --size_;
  }

  /// True if `item` is currently in the queue.
  bool Contains(uint32_t item) const { return key_[item] != kAbsent; }

  /// Current key of a present item.
  int64_t KeyOf(uint32_t item) const {
    DCHECK_NE(key_[item], kAbsent);
    return key_[item];
  }

  bool Empty() const { return size_ == 0; }
  uint32_t Size() const { return size_; }

  /// Extracts an item with minimum key. Returns nullopt when empty.
  std::optional<std::pair<uint32_t, int64_t>> PopMin() {
    while (size_ > 0 && !heap_.empty()) {
      const Entry top = heap_.front();
      PopRoot();
      if (key_[top.item] != top.key) continue;  // stale or removed
      key_[top.item] = kAbsent;
      --size_;
      return std::make_pair(top.item, top.key);
    }
    return std::nullopt;
  }

  /// Key of the current minimum without extracting, or nullopt when empty.
  std::optional<int64_t> PeekMinKey() {
    while (size_ > 0 && !heap_.empty()) {
      const Entry& top = heap_.front();
      if (key_[top.item] != top.key) {
        PopRoot();  // drop stale entry and retry
        continue;
      }
      return top.key;
    }
    return std::nullopt;
  }

 private:
  static constexpr int64_t kAbsent = -1;
  /// Heap arity; 4 keeps sift-down touching one cache line of children.
  static constexpr size_t kArity = 4;

  struct Entry {
    int64_t key;
    uint64_t seq;   ///< global push counter, breaks key ties LIFO
    uint32_t item;
  };

  /// Strict weak order: smaller key first; among equal keys the *latest*
  /// push first — BucketQueue pops the latest link of a bucket first.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq > b.seq;
  }

  void Push(uint32_t item, int64_t key) {
    heap_.push_back(Entry{key, next_seq_++, item});
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void PopRoot() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    size_t i = 0;
    while (true) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= heap_.size()) break;
      size_t best = first_child;
      const size_t end = std::min(first_child + kArity, heap_.size());
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<int64_t> key_;
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
  uint32_t size_ = 0;
};

/// Runtime-dispatched peel queue for weighted keys: the same interface and
/// extraction order as BucketQueue / LazyHeapQueue (the two backends are
/// pop-order identical by construction, cross-checked in
/// tests/peel_queue_test.cc), with the backend chosen per instance from
/// the actual key bound. Since both backends extract the same items in the
/// same order, the choice is invisible to callers — peel trajectories are
/// bit-identical whichever backend runs, so the dispatch is purely a
/// constant-factor decision.
class HybridPeelQueue {
 public:
  /// True when a dense bucket array over [0, max_key] is the profitable
  /// backend for `n` items: the O(max_key) allocation and cumulative
  /// bucket scan must stay comparable to the O(n) the peel already pays.
  /// Unit-weight lifts (max weighted degree = max degree <= n) and small
  /// multiplicities land in the bucket regime; heavy-tailed weighted
  /// degrees (bounded only by W) take the heap.
  static bool UsesBucket(uint32_t n, int64_t max_key) {
    return max_key <= std::max<int64_t>(4096, 4 * static_cast<int64_t>(n));
  }

  HybridPeelQueue(uint32_t n, int64_t max_key)
      : use_bucket_(UsesBucket(n, max_key)) {
    if (use_bucket_) {
      bucket_.emplace(n, max_key);
    } else {
      heap_.emplace(n, max_key);
    }
  }

  void Insert(uint32_t item, int64_t key) {
    use_bucket_ ? bucket_->Insert(item, key) : heap_->Insert(item, key);
  }
  void DecreaseKey(uint32_t item, int64_t new_key) {
    use_bucket_ ? bucket_->DecreaseKey(item, new_key)
                : heap_->DecreaseKey(item, new_key);
  }
  void Decrement(uint32_t item) {
    use_bucket_ ? bucket_->Decrement(item) : heap_->Decrement(item);
  }
  void Remove(uint32_t item) {
    use_bucket_ ? bucket_->Remove(item) : heap_->Remove(item);
  }
  bool Contains(uint32_t item) const {
    return use_bucket_ ? bucket_->Contains(item) : heap_->Contains(item);
  }
  int64_t KeyOf(uint32_t item) const {
    return use_bucket_ ? bucket_->KeyOf(item) : heap_->KeyOf(item);
  }
  bool Empty() const { return use_bucket_ ? bucket_->Empty() : heap_->Empty(); }
  uint32_t Size() const { return use_bucket_ ? bucket_->Size() : heap_->Size(); }
  std::optional<std::pair<uint32_t, int64_t>> PopMin() {
    return use_bucket_ ? bucket_->PopMin() : heap_->PopMin();
  }
  std::optional<int64_t> PeekMinKey() {
    return use_bucket_ ? bucket_->PeekMinKey() : heap_->PeekMinKey();
  }

  /// Which backend this instance runs on (observable for tests/benches).
  bool uses_bucket_backend() const { return use_bucket_; }

 private:
  bool use_bucket_;
  std::optional<BucketQueue> bucket_;
  std::optional<LazyHeapQueue> heap_;
};

namespace internal {

template <bool kWeightedKeys>
struct PeelQueueSelector {
  using type = BucketQueue;
};

template <>
struct PeelQueueSelector<true> {
  using type = HybridPeelQueue;
};

}  // namespace internal

/// The peel queue for graph type `G` (a `DigraphT` instantiation): the
/// monotone bucket queue when degrees are unit-weighted, the runtime
/// bucket-or-heap hybrid when they are weighted sums.
template <typename G>
using PeelQueue = typename internal::PeelQueueSelector<G::kWeighted>::type;

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_PEEL_QUEUE_H_
